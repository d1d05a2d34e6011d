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
// goroutine handoffs).
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
