package raid

import (
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
)

func benchStripe(n, blockLen int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	data := make([][]byte, n)
	for i := range data {
		data[i] = make([]byte, blockLen)
		rng.Read(data[i])
	}
	return data
}

func BenchmarkXORParity(b *testing.B) {
	data := benchStripe(5, 4096)
	b.SetBytes(5 * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		XORParity(data)
	}
}

func BenchmarkRSParity(b *testing.B) {
	data := benchStripe(5, 4096)
	b.SetBytes(5 * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rsParity(nil, data)
	}
}

func BenchmarkReconstructSingle(b *testing.B) {
	data := benchStripe(5, 4096)
	p := XORParity(data)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := make([][]byte, len(data))
		copy(work, data)
		work[2] = nil
		if err := Reconstruct(work, p, nil, []int{2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstructDouble(b *testing.B) {
	data := benchStripe(6, 4096)
	p := XORParity(data)
	q := rsParity(nil, data)
	b.SetBytes(2 * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := make([][]byte, len(data))
		copy(work, data)
		work[1], work[4] = nil, nil
		if err := Reconstruct(work, p, q, []int{1, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRAID5SmallWriteRMW measures the simulated latency of the
// read-modify-write small-write path (host cost of simulating it).
func BenchmarkRAID5SmallWriteRMW(b *testing.B) {
	spec := disk.Spec{BlockSize: 4096, Blocks: 1 << 14, Seek: 5 * sim.Millisecond,
		Rotation: 3 * sim.Millisecond, TransferBps: 400_000_000}
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(int64(i))
		farm := disk.NewFarm(k, "d", 5, spec)
		g, _ := NewGroup(k, RAID5, farm.Disks)
		k.Go("w", func(p *sim.Proc) {
			buf := make([]byte, 4096)
			for j := int64(0); j < 16; j++ {
				g.Write(p, j*7, buf)
			}
		})
		k.Run()
	}
}

// BenchmarkRAID5FullStripeWrite measures the reconstruct-write fast path.
func BenchmarkRAID5FullStripeWrite(b *testing.B) {
	spec := disk.Spec{BlockSize: 4096, Blocks: 1 << 14, Seek: 5 * sim.Millisecond,
		Rotation: 3 * sim.Millisecond, TransferBps: 400_000_000}
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(int64(i))
		farm := disk.NewFarm(k, "d", 5, spec)
		g, _ := NewGroup(k, RAID5, farm.Disks)
		k.Go("w", func(p *sim.Proc) {
			buf := make([]byte, 4*4096) // exactly one stripe row
			for j := int64(0); j < 16; j++ {
				g.Write(p, j*4, buf)
			}
		})
		k.Run()
	}
}
