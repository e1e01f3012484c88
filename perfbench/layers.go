package main

import (
	"fmt"

	"mobiceal"
	"mobiceal/internal/obs"
)

// perLayer derives the per-layer metrics of the traced phase and the
// per-layer self-time table. plain is the untraced phase of the same run,
// the base of trace.overhead_pct.
func perLayer(sp *spec, plain, p *phase, lad ladder, b band) (metricSet, string) {
	m := metricSet{}
	tb, ta := p.before.tel, p.after.tel
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	d := func(a, b uint64) float64 { return float64(a - b) }

	// storage: the accounting wraps around the pool's data and metadata
	// regions, and the file backend's syscall counters.
	var (
		readOps  = d(ta.Data.ReadLat.Count, tb.Data.ReadLat.Count) + d(ta.Meta.ReadLat.Count, tb.Meta.ReadLat.Count)
		writeOps = d(ta.Data.WriteLat.Count, tb.Data.WriteLat.Count) + d(ta.Meta.WriteLat.Count, tb.Meta.WriteLat.Count)
		dataBusy = ta.Data.ReadLat.SumNS - tb.Data.ReadLat.SumNS + ta.Data.WriteLat.SumNS - tb.Data.WriteLat.SumNS +
			ta.Data.SyncLat.SumNS - tb.Data.SyncLat.SumNS
		metaBusy = ta.Meta.ReadLat.SumNS - tb.Meta.ReadLat.SumNS + ta.Meta.WriteLat.SumNS - tb.Meta.WriteLat.SumNS +
			ta.Meta.SyncLat.SumNS - tb.Meta.SyncLat.SumNS
		syncLat = histDelta(ta.Data.SyncLat, tb.Data.SyncLat)
	)
	metaSync := histDelta(ta.Meta.SyncLat, tb.Meta.SyncLat)
	for i := range syncLat.Buckets {
		syncLat.Buckets[i] += metaSync.Buckets[i]
	}
	syncLat.Count += metaSync.Count
	m.set("storage.read_ops", readOps, "count")
	m.set("storage.write_ops", writeOps, "count")
	m.set("storage.bytes_read", d(ta.Data.BytesRead, tb.Data.BytesRead)+d(ta.Meta.BytesRead, tb.Meta.BytesRead), "B")
	m.set("storage.bytes_written", d(ta.Data.BytesWrite, tb.Data.BytesWrite)+d(ta.Meta.BytesWrite, tb.Meta.BytesWrite), "B")
	m.set("storage.syncs", d(ta.Data.Syncs, tb.Data.Syncs)+d(ta.Meta.Syncs, tb.Meta.Syncs), "count")
	m.set("storage.busy_s", sec(dataBusy+metaBusy), "s")
	m.set("storage.sync_p99_ms", ms(histTail(syncLat)), "ms")
	var calls, segs float64
	if ta.File != nil && tb.File != nil {
		calls = d(ta.File.PreadvCalls, tb.File.PreadvCalls) + d(ta.File.PwritevCalls, tb.File.PwritevCalls)
		segs = d(ta.File.ReadSegs, tb.File.ReadSegs) + d(ta.File.WriteSegs, tb.File.WriteSegs)
	}
	m.set("storage.syscalls_per_op", ratio(calls, readOps+writeOps), "ratio")
	m.set("storage.segs_per_syscall", ratio(segs, calls), "ratio")

	// thinp: pool metrics, policy and dummy counters.
	pa, pb := ta.Pool, tb.Pool
	flips := d(pa.CommitFlips, pb.CommitFlips)
	commit := histDelta(pa.CommitTotalLat, pb.CommitTotalLat)
	alloc := histDelta(pa.AllocLat, pb.AllocLat)
	m.set("thinp.commit_s", sec(commit.SumNS), "s")
	m.set("thinp.commit_p99_ms", ms(histTail(commit)), "ms")
	m.set("thinp.commit_calls", d(pa.CommitCalls, pb.CommitCalls), "count")
	m.set("thinp.commit_flips", flips, "count")
	m.set("thinp.fold_ratio", ratio(d(pa.CommitCalls, pb.CommitCalls), flips), "ratio")
	m.set("thinp.meta_blocks_per_flip", ratio(d(ta.Meta.WriteBlocks, tb.Meta.WriteBlocks), flips), "ratio")
	m.set("thinp.flips_per_flush", ratio(flips, float64(p.flushes)), "ratio")
	m.set("thinp.provisions", d(pa.Provisions, pb.Provisions), "count")
	m.set("thinp.releases", d(pa.Releases, pb.Releases), "count")
	m.set("thinp.alloc_s", sec(alloc.SumNS), "s")
	m.set("thinp.alloc_p99_us", float64(histTail(alloc))/1e3, "us")
	dummy := d(p.after.dummy, p.before.dummy)
	m.set("thinp.dummy_blocks", dummy, "count")
	m.set("thinp.dummy_per_provision", b.poolRate, "ratio")

	// dm: the replay ladder's per-block cost applied to the blocks that
	// crossed dm-crypt in the traced phase (data-region traffic minus the
	// dummy noise, which is written below it).
	dmBlocks := d(ta.Data.ReadBlocks, tb.Data.ReadBlocks) + d(ta.Data.WriteBlocks, tb.Data.WriteBlocks) - dummy
	dmSelf := lad.nsPerBlock * dmBlocks / 1e9
	m.set("dm.self_s", dmSelf, "s")
	m.set("dm.ns_per_block", lad.nsPerBlock, "ns")
	m.set("dm.blocks", dmBlocks, "count")

	// ioq: scheduler metrics, and the flight recorder's Q2D and D2C.
	ia, ib := ta.IO, tb.IO
	queue := histDelta(ia.QueueLat, ib.QueueLat)
	service := histDelta(ia.ServiceLat, ib.ServiceLat)
	completed := d(ia.Completed, ib.Completed)
	m.set("ioq.queue_s", sec(queue.SumNS), "s")
	m.set("ioq.queue_p99_ms", ms(histTail(queue)), "ms")
	m.set("ioq.service_s", sec(service.SumNS), "s")
	m.set("ioq.service_p99_ms", ms(histTail(service)), "ms")
	m.set("ioq.reqs_per_batch", ratio(completed, d(ia.Batches, ib.Batches)), "ratio")
	m.set("ioq.merge_ratio", ratio(d(ia.CoalescedReqs, ib.CoalescedReqs), completed), "ratio")
	m.set("ioq.retries", d(ia.Retries, ib.Retries), "count")
	m.set("ioq.failures", d(ia.Failures, ib.Failures), "count")
	rep := mobiceal.AnalyzeTrace(p.events)
	q2d, d2c := busiestOp(rep)
	m.set("ioq.q2d_p50_us", q2d, "us")
	m.set("ioq.d2c_p50_us", d2c, "us")

	// minifs: its own counters, and its self time as the residual of the
	// time spent in its calls minus the layers beneath them.
	spans := spanTimes(p)
	var fsSyncs, fsJournal float64
	for i := range p.after.fs {
		fsSyncs += d(p.after.fs[i].Syncs, p.before.fs[i].Syncs)
		fsJournal += d(p.after.fs[i].JournalBlocks, p.before.fs[i].JournalBlocks)
	}
	var fsCalls float64
	for _, n := range []string{"minifs.write", "minifs.read", "minifs.sync", "minifs.remove"} {
		fsCalls += spans[n].total.Seconds()
	}
	// The time spent beneath a minifs call or an ioq dispatch that the
	// layers below account for.
	beneath := dmSelf + sec(dataBusy) + sec(commit.SumNS) + sec(alloc.SumNS)
	var fsSelf float64
	if sp.fs {
		fsSelf = fsCalls - beneath
	}
	m.set("minifs.self_s", fsSelf, "s")
	m.set("minifs.syncs", fsSyncs, "count")
	var fsSyncTail float64
	if sp.fs {
		fsSyncTail = p.lat[opFlush].summary().Tail
	}
	m.set("minifs.sync_p99_ms", fsSyncTail, "ms")
	m.set("minifs.journal_blocks_per_sync", ratio(fsJournal, fsSyncs), "ratio")

	// core: garbage collection, timed around each call.
	var gcTime float64
	var gcRuns, gcReclaimed uint64
	for _, c := range p.clients {
		gcTime += c.gcTime.Seconds()
		gcRuns += c.gcRuns
		gcReclaimed += c.gcReclaimed
	}
	m.set("core.gc_s", gcTime, "s")
	m.set("core.gc_runs", float64(gcRuns), "count")
	m.set("core.gc_reclaimed_blocks", float64(gcReclaimed), "count")

	// go: the runtime's own counters.
	m.set("go.alloc_bytes_per_op", ratio(d(p.after.allocBytes, p.before.allocBytes), float64(p.ops)), "B")
	m.set("go.gc_cycles", d(p.after.gcCycles, p.before.gcCycles), "count")
	m.set("go.gc_pause_s", d(p.after.gcPauseNS, p.before.gcPauseNS)/1e9, "s")

	// The tails, which do not repeat from seed to seed, and the failures.
	for k, name := range []string{"write", "read", "flush"} {
		m.set(name+"_p99_ms", p.lat[k].summary().Tail, "ms")
	}
	m.set("fail_ratio", ratio(float64(p.failed), float64(p.attempted)), "ratio")
	m.set("trace.overhead_pct", 100*ratio(plain.opsPerSec()-p.opsPerSec(), plain.opsPerSec()), "%")

	// The self-time table.
	var coreOps float64
	for _, n := range []string{"core.write", "core.read", "core.flush", "core.trim"} {
		coreOps += spans[n].total.Seconds()
	}
	rows := []layerRow{{
		layer: "client", self: spans["client.iter"].self.Seconds(),
		work: fmt.Sprintf("%d iterations", spans["client.iter"].count), source: "span self time (content stamping and checks)",
	}}
	q2c := histDelta(ia.TotalLat, ib.TotalLat)
	if !sp.fs {
		rows = append(rows, layerRow{
			layer: "core", self: coreOps - sec(q2c.SumNS) + gcTime,
			work:   fmt.Sprintf("%d requests, %d gc", p.attempted, gcRuns),
			source: "core.* spans - ioq submit-to-complete, + core.gc spans",
		}, layerRow{
			layer: "ioq+map", self: sec(service.SumNS) - beneath, wait: sec(queue.SumNS),
			work:   fmt.Sprintf("%.0f reqs, %.2f reqs/batch", completed, ratio(completed, d(ia.Batches, ib.Batches))),
			source: "ioq service - (dm + data storage + commit + alloc): dispatch, thin mapping, dummy noise",
		})
	} else {
		rows = append(rows, layerRow{
			layer: "core", self: gcTime,
			work: fmt.Sprintf("%d gc", gcRuns), source: "core.gc spans",
		}, layerRow{
			layer: "minifs", self: fsSelf,
			work:   fmt.Sprintf("%.0f syncs, %d calls", fsSyncs, spans["minifs.write"].count+spans["minifs.read"].count+spans["minifs.sync"].count+spans["minifs.remove"].count),
			source: "minifs.* spans - (dm + data storage + commit + alloc), with thin mapping",
		})
	}
	rows = append(rows, layerRow{
		layer: "thinp", self: sec(commit.SumNS) - sec(metaBusy) + sec(alloc.SumNS),
		work:   fmt.Sprintf("%.0f provisions, %.0f flips", d(pa.Provisions, pb.Provisions), flips),
		source: "commit - metadata storage + alloc histograms",
	}, layerRow{
		layer: "dm", self: dmSelf,
		work:   fmt.Sprintf("%.0f blocks, %.0f ns/block", dmBlocks, lad.nsPerBlock),
		source: fmt.Sprintf("replay ladder (bare %v, crypt %v for %d blocks)", lad.bare, lad.enc, lad.blocks),
	}, layerRow{
		layer: "storage", self: sec(dataBusy + metaBusy),
		work:   fmt.Sprintf("%.0f ops, %.0f syncs", readOps+writeOps, m["storage.syncs"].Value),
		source: "region device latency histograms",
	})
	title := fmt.Sprintf("per-layer self time, traced phase of %.2f s (%d flight events, %d near-full drains):",
		p.elapsed.Seconds(), len(p.events), p.dropped)
	return m, formatTable(title, rows)
}

// histTail is a latency histogram's tail in nanoseconds: the upper edge of
// the bucket holding its p99, or its highest supported percentile when it
// holds fewer than 1000 samples.
func histTail(h obs.HistSnapshot) int64 {
	return int64(h.Quantile(float64(tailPct(int(h.Count))) / 100))
}

// busiestOp returns the Q2D and D2C medians, in microseconds, of the op
// kind with the most completed requests in the trace.
func busiestOp(rep *mobiceal.TraceReport) (q2dUS, d2cUS float64) {
	best := -1
	for i, o := range rep.Ops {
		if best < 0 || o.Q2C.Count > rep.Ops[best].Q2C.Count {
			best = i
		}
	}
	if best < 0 {
		return 0, 0
	}
	o := rep.Ops[best]
	return float64(o.Q2D.P50NS) / 1e3, float64(o.D2C.P50NS) / 1e3
}
