package sim

import "testing"

// BenchmarkEventThroughput measures raw scheduler throughput — the budget
// every simulated component spends from.
func BenchmarkEventThroughput(b *testing.B) {
	k := NewKernel(1)
	count := 0
	var schedule func()
	schedule = func() {
		count++
		if count < b.N {
			k.After(Microsecond, schedule)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.After(Microsecond, schedule)
	k.Run()
}

// BenchmarkProcSwitch measures a process sleep/wake round trip (two
// coroutine switches).
func BenchmarkProcSwitch(b *testing.B) {
	k := NewKernel(1)
	k.Go("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkMailboxSendRecv measures producer/consumer handoff cost.
func BenchmarkMailboxSendRecv(b *testing.B) {
	k := NewKernel(1)
	mb := NewMailbox[int](k)
	k.Go("recv", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			mb.Recv(p)
		}
	})
	k.Go("send", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			mb.Send(i)
			p.Yield()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// spawnBench times b.N spawn-run-exit cycles of body in fan-outs of 64 — the
// controller's per-op shape — from a parent that stays parked meanwhile.
func spawnBench(b *testing.B, body func(p *Proc)) {
	k := NewKernel(1)
	defer k.Close()
	k.Go("parent", func(p *Proc) {
		for done := 0; done < b.N; done += 64 {
			g := NewGroup(k)
			for i := 0; i < 64; i++ {
				g.Add(1)
				k.Go("child", func(q *Proc) {
					body(q)
					g.Done()
				})
			}
			g.Wait(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkSpawn measures starting and finishing a process with an empty
// body: the Proc, its start event, and a switch to a runner and back.
func BenchmarkSpawn(b *testing.B) { spawnBench(b, func(p *Proc) {}) }

// BenchmarkSpawnDeepCall is BenchmarkSpawn with a body 40 frames deep, the
// depth of a missed block's way down to the disk: on a fresh goroutine that
// depth is grown by copying the stack several times over, on a reused runner
// it is already there.
func BenchmarkSpawnDeepCall(b *testing.B) {
	spawnBench(b, func(p *Proc) { sink += deepCall(40) })
}

var sink int

//go:noinline
func deepCall(n int) int {
	var pad [128]byte // a frame the size of a typical I/O method's
	pad[n] = byte(n)
	if n == 0 {
		return int(pad[0])
	}
	return deepCall(n-1) + int(pad[n])
}
