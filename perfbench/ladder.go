package main

import (
	"fmt"
	"sync"
	"time"

	"mobiceal/internal/dm"
	"mobiceal/internal/ioq"
	"mobiceal/internal/storage"
	"mobiceal/internal/xcrypto"
)

// dm-crypt records nothing of its own, so the traced run measures it with
// a two-rung ladder: the workload's request stream is replayed through an
// ioq queue over a bare memory device, then over dm-crypt (XTS) on the
// same kind of device. The difference between the rungs is crypt time.

const (
	// ladderBlocks bounds the blocks one rung replays.
	ladderBlocks = 32768
	// ladderDevBlocks is the replay device size; stream offsets wrap into
	// it, which does not change XTS cost (it is per block, wherever the
	// block is).
	ladderDevBlocks = 16384
	ladderReps      = 3
)

// ladder is the replay's outcome.
type ladder struct {
	blocks     int           // blocks replayed per rung
	bare, enc  time.Duration // median rung times
	nsPerBlock float64       // median of the paired per-rep differences
}

// runLadder replays the traced phase's request stream.
func runLadder(r *runner, p *phase) (ladder, error) {
	var reqs []ioReq
	var lad ladder
	for i := 0; lad.blocks < ladderBlocks; i++ {
		added := false
		for _, c := range p.clients {
			if i < len(c.stream) && lad.blocks < ladderBlocks {
				reqs = append(reqs, c.stream[i])
				lad.blocks += c.stream[i].n
				added = true
			}
		}
		if !added {
			break
		}
	}
	if lad.blocks == 0 {
		return lad, fmt.Errorf("no requests recorded")
	}
	key := make([]byte, 64)
	for i := range key {
		key[i] = byte(stampWord(r.seed, uint64(i), 1, 2))
	}
	var bare, enc, diff []float64
	for rep := 0; rep < ladderReps; rep++ {
		var t [2]time.Duration
		for k := 0; k < 2; k++ {
			rung := (k + rep) % 2 // alternate which rung goes first
			d, err := replay(r.spec, reqs, rung == 1, key)
			if err != nil {
				return lad, err
			}
			t[rung] = d
		}
		bare = append(bare, t[0].Seconds())
		enc = append(enc, t[1].Seconds())
		diff = append(diff, float64(t[1]-t[0])/float64(lad.blocks))
	}
	lad.bare = time.Duration(median(bare) * 1e9)
	lad.enc = time.Duration(median(enc) * 1e9)
	lad.nsPerBlock = median(diff)
	return lad, nil
}

// replay runs reqs through a fresh scheduler with the workload's client
// count, depth and volume count, and returns the wall time.
func replay(sp *spec, reqs []ioReq, crypt bool, key []byte) (time.Duration, error) {
	sched := ioq.NewScheduler(ioq.Options{})
	defer sched.Close()
	queues := make([]*ioq.VolumeQueue, sp.volumes)
	for i := range queues {
		var dev storage.Device = storage.NewMemDevice(blockSize, ladderDevBlocks)
		if crypt {
			x, err := xcrypto.NewXTSPlain64(key)
			if err != nil {
				return 0, err
			}
			dev = dm.NewCrypt(dev, x, nil)
		}
		queues[i] = sched.Register(dev)
	}
	maxN := 1
	for _, q := range reqs {
		maxN = max(maxN, q.n)
	}
	errs := make([]error, sp.clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < sp.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			q := queues[c%len(queues)]
			bufs := make([][]byte, sp.depth)
			for i := range bufs {
				bufs[i] = make([]byte, maxN*blockSize)
			}
			var inflight []*ioq.Future
			for i, k := c, 0; i < len(reqs); i, k = i+sp.clients, k+1 {
				if len(inflight) == sp.depth {
					if err := inflight[0].Wait(); err != nil && errs[c] == nil {
						errs[c] = err
					}
					inflight = inflight[1:]
				}
				rq := reqs[i]
				buf := bufs[k%sp.depth][:rq.n*blockSize]
				start := rq.start % uint64(ladderDevBlocks-rq.n+1)
				if rq.write {
					inflight = append(inflight, q.SubmitWrite(start, buf))
				} else {
					inflight = append(inflight, q.SubmitRead(start, buf))
				}
			}
			if err := ioq.WaitAll(inflight...); err != nil && errs[c] == nil {
				errs[c] = err
			}
		}(c)
	}
	wg.Wait()
	d := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return d, nil
}
