package storage

import (
	"fmt"
	"testing"
)

// BenchmarkSnapshotCheckpoint measures the multi-snapshot adversary's
// per-checkpoint primitive: mutate a bounded working set on a device with a
// large cold written population, then capture a snapshot. Snapshot cost
// must track the blocks dirtied since the previous snapshot, not the total
// written population.
func BenchmarkSnapshotCheckpoint(b *testing.B) {
	const bs = 4096
	for _, written := range []uint64{4096, 65536} {
		written := written
		b.Run(fmt.Sprintf("written=%d", written), func(b *testing.B) {
			d := NewMemDevice(bs, written+64)
			buf := make([]byte, bs)
			for i := range buf {
				buf[i] = 0xa5
			}
			for idx := uint64(0); idx < written; idx++ {
				if err := WriteBlocks(d, idx, buf); err != nil {
					b.Fatal(err)
				}
			}
			d.Snapshot()
			b.ResetTimer()
			var sink *Snapshot
			for i := 0; i < b.N; i++ {
				// A 16-block working set dirtied between checkpoints.
				for j := uint64(0); j < 16; j++ {
					if err := WriteBlocks(d, (uint64(i)*16+j)%written, buf); err != nil {
						b.Fatal(err)
					}
				}
				sink = d.Snapshot()
			}
			_ = sink
		})
	}
}
