package storage

import "testing"

// BenchmarkDeviceWriteOverhead is the telemetry overhead guard for the
// device layer: the same single-block write loop against a raw MemDevice
// and behind the obs-instrumented StatsDevice. The wrap must report
// 0 allocs/op; its time cost is two clock reads plus three atomic updates
// (~150ns here), visible only because MemDevice writes at RAM speed — the
// end-to-end guards (BenchmarkThinWriteRandomAlloc, BenchmarkFig4) show it
// vanish behind crypto and allocator work on the real stack.
func BenchmarkDeviceWriteOverhead(b *testing.B) {
	const blocks = 1024
	run := func(b *testing.B, dev Device) {
		b.Helper()
		buf := make([]byte, dev.BlockSize())
		b.ReportAllocs()
		b.SetBytes(int64(dev.BlockSize()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := WriteBlocks(dev, uint64(i)%blocks, buf); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("raw", func(b *testing.B) {
		run(b, NewMemDevice(4096, blocks))
	})
	b.Run("stats", func(b *testing.B) {
		run(b, NewStatsDevice(NewMemDevice(4096, blocks)))
	})
}
