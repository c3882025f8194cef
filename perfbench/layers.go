package main

import (
	"runtime"
	"sort"
	"strings"

	"bioopera/internal/store"
)

// layerInput is everything the per-layer breakdown is derived from: the
// traced pass's spans and boundary counters, plus deltas read from the
// store, the Go runtime and the device around it.
type layerInput struct {
	spans      []span
	tr         *tracer
	activities float64
	remote     bool // activities ran on remote worker agents

	disk       *store.Stats // primary disk store counter deltas (nil: in-memory)
	walBytes   float64      // growth of the primary's wal/ directory
	mem0, mem1 runtime.MemStats

	shipLag     []float64 // primary−standby WAL frames, sampled every 10 ms
	shipDrainMs float64   // load stop → standby digest equal

	fsyncUs []float64 // device probe before and after the pass

	untracedRate, tracedRate float64 // activities/s of the two passes

	snapshotBytes, replayRecords float64 // restart only
}

// addDiskDelta accumulates the commit-group and fsync counters a pass
// added between two Disk.Stats readings.
func (in *layerInput) addDiskDelta(before, after store.Stats) {
	if in.disk == nil {
		in.disk = &store.Stats{}
	}
	in.disk.CommitGroups += after.CommitGroups - before.CommitGroups
	in.disk.GroupedRecords += after.GroupedRecords - before.GroupedRecords
	in.disk.WALSyncs += after.WALSyncs - before.WALSyncs
}

// layerUnits lists every per-layer metric with its unit. Each workload
// reports all of them; a boundary the workload never crosses reads 0.
var layerUnits = map[string]string{
	"program.run_p50_us":               "us",
	"core.start_p50_ms":                "ms",
	"core.start_p99_ms":                "ms",
	"core.handoff_p50_ms":              "ms",
	"core.handoff_p99_ms":              "ms",
	"core.finish_p50_ms":               "ms",
	"core.dispatch_to_run_p50_ms":      "ms",
	"core.run_to_ended_p50_ms":         "ms",
	"remote.dispatch_to_run_p50_ms":    "ms",
	"remote.run_to_ended_p50_ms":       "ms",
	"core.self_ms_per_instance":        "ms",
	"core.restart_s":                   "s",
	"core.recover_s":                   "s",
	"core.recover_self_s":              "s",
	"core.drain_s":                     "s",
	"sched.pick_p50_us":                "us",
	"sched.picks_per_activity":         "count/activity",
	"store.batch_p50_ms":               "ms",
	"store.batch_p99_ms":               "ms",
	"store.batches_per_activity":       "count/activity",
	"store.append_event_p50_ms":        "ms",
	"store.events_per_activity":        "count/activity",
	"store.bytes_per_activity":         "B/activity",
	"store.commit_groups_per_activity": "count/activity",
	"store.records_per_group":          "count/group",
	"store.open_s":                     "s",
	"store.read_s":                     "s",
	"store.snapshot_s":                 "s",
	"store.snapshot_bytes":             "B",
	"wal.fsyncs_per_activity":          "count/activity",
	"wal.bytes_per_activity":           "B/activity",
	"wal.replay_records":               "records",
	"wal.ship_lag_p99_frames":          "frames",
	"wal.ship_drain_ms":                "ms",
	"fed.start_rpc_p50_ms":             "ms",
	"fed.start_rpc_p99_ms":             "ms",
	"fed.wait_return_p50_ms":           "ms",
	"go.allocs_per_activity":           "count/activity",
	"go.gc_cycles_per_1k_activities":   "count/1k",
	"device.fsync_p50_us":              "us",
	"trace.overhead_pct":               "%",
}

const (
	nsPerMs = 1e6
	nsPerUs = 1e3
	nsPerS  = 1e9
)

// layerMetrics derives the per-layer breakdown. Percentiles with fewer
// than 10 samples beyond them are still reported; the names of those
// measured at all are returned so the run metadata can flag them as
// unresolved.
func layerMetrics(in layerInput) (map[string]metric, []string) {
	spans := in.spans
	v := make(map[string]float64, len(layerUnits))
	var unresolved []string
	pct := func(name string, xs []float64, q, scale float64) {
		p, ok := percentile(xs, q)
		v[name] = p / scale
		if !ok && q > 0.5 && len(xs) > 0 {
			unresolved = append(unresolved, name)
		}
	}

	byName := make(map[string][]float64)
	byInst := make(map[string][]int)
	for i, s := range spans {
		byName[s.name] = append(byName[s.name], float64(s.end-s.start))
		if s.inst != "" {
			byInst[s.inst] = append(byInst[s.inst], i)
		}
	}

	pct("program.run_p50_us", byName["program.run"], 0.5, nsPerUs)
	pct("core.start_p50_ms", byName["core.start"], 0.5, nsPerMs)
	pct("core.start_p99_ms", byName["core.start"], 0.99, nsPerMs)
	pct("sched.pick_p50_us", byName["sched.pick"], 0.5, nsPerUs)
	pct("store.batch_p50_ms", byName["store.batch"], 0.5, nsPerMs)
	pct("store.batch_p99_ms", byName["store.batch"], 0.99, nsPerMs)
	pct("store.append_event_p50_ms", byName["store.append_event"], 0.5, nsPerMs)
	pct("fed.start_rpc_p50_ms", byName["fed.start"], 0.5, nsPerMs)
	pct("fed.start_rpc_p99_ms", byName["fed.start"], 0.99, nsPerMs)
	v["core.restart_s"] = mean(byName["core.restart"]) / nsPerS
	v["core.recover_s"] = mean(byName["core.recover"]) / nsPerS
	v["core.drain_s"] = mean(byName["core.drain"]) / nsPerS
	v["store.open_s"] = mean(byName["store.open"]) / nsPerS
	v["store.snapshot_s"] = mean(byName["store.snapshot"]) / nsPerS

	// Per instance: stage hand-offs, the finish interval, and core self
	// time — the instance span minus the program, store and scheduler
	// spans serving it.
	var handoffs, finish, fedFinish, selfMs []float64
	for _, idx := range byInst {
		stages := make(map[string]*interval)
		var order []string
		var lastEnd int64
		var root, wait, fedWait *span
		var children []interval
		for _, i := range idx {
			s := &spans[i]
			switch {
			case s.name == "program.run":
				st := stages[s.task]
				if st == nil {
					st = &interval{s.start, s.end}
					stages[s.task] = st
					order = append(order, s.task)
				}
				if s.start < st.start {
					st.start = s.start
				}
				if s.end > st.end {
					st.end = s.end
				}
				if s.end > lastEnd {
					lastEnd = s.end
				}
				children = append(children, interval{s.start, s.end})
			case s.name == "sched.pick" || strings.HasPrefix(s.name, "store."):
				children = append(children, interval{s.start, s.end})
			case s.name == "instance":
				root = s
			case s.name == "core.wait":
				wait = s
			case s.name == "fed.wait":
				fedWait = s
			}
		}
		sort.Slice(order, func(a, b int) bool { return stages[order[a]].start < stages[order[b]].start })
		for k := 1; k < len(order); k++ {
			handoffs = append(handoffs, float64(stages[order[k]].start-stages[order[k-1]].end))
		}
		if lastEnd > 0 && wait != nil {
			finish = append(finish, float64(wait.end-lastEnd))
		}
		if lastEnd > 0 && fedWait != nil {
			fedFinish = append(fedFinish, float64(fedWait.end-lastEnd))
		}
		if root != nil {
			selfMs = append(selfMs, float64(root.end-root.start-covered(root.start, root.end, children))/nsPerMs)
		}
	}
	pct("core.handoff_p50_ms", handoffs, 0.5, nsPerMs)
	pct("core.handoff_p99_ms", handoffs, 0.99, nsPerMs)
	pct("core.finish_p50_ms", finish, 0.5, nsPerMs)
	pct("fed.wait_return_p50_ms", fedFinish, 0.5, nsPerMs)
	v["core.self_ms_per_instance"] = mean(selfMs)

	// Executor hand-off: task-dispatched event → program start, and
	// program return → task-ended event, matched on instance, task and
	// node (a slot runs one program at a time).
	type key struct{ inst, task, node string }
	dispatched := make(map[key][]int64)
	ended := make(map[key][]int64)
	for _, s := range spans {
		switch s.name {
		case "event.task-dispatched":
			k := key{s.inst, s.task, s.node}
			dispatched[k] = append(dispatched[k], s.start)
		case "event.task-ended":
			k := key{s.inst, s.task, s.node}
			ended[k] = append(ended[k], s.start)
		}
	}
	var toRun, toEnded []float64
	for _, s := range spans {
		if s.name != "program.run" {
			continue
		}
		k := key{s.inst, s.task, s.node}
		if ds := dispatched[k]; len(ds) > 0 {
			if j := sort.Search(len(ds), func(j int) bool { return ds[j] > s.start }); j > 0 {
				toRun = append(toRun, float64(s.start-ds[j-1]))
			}
		}
		if es := ended[k]; len(es) > 0 {
			if j := sort.Search(len(es), func(j int) bool { return es[j] >= s.end }); j < len(es) {
				toEnded = append(toEnded, float64(es[j]-s.end))
			}
		}
	}
	prefix := "core."
	if in.remote {
		prefix = "remote."
	}
	pct(prefix+"dispatch_to_run_p50_ms", toRun, 0.5, nsPerMs)
	pct(prefix+"run_to_ended_p50_ms", toEnded, 0.5, nsPerMs)

	// Recovery self time: Engine.Recover minus the store reads inside it.
	var recSelf, reads []float64
	for _, r := range spans {
		if r.name != "core.recover" {
			continue
		}
		var ivs []interval
		for _, s := range spans {
			if (s.name == "store.list" || s.name == "store.get" || s.name == "store.events") && s.start >= r.start && s.end <= r.end {
				ivs = append(ivs, interval{s.start, s.end})
			}
		}
		c := covered(r.start, r.end, ivs)
		reads = append(reads, float64(c)/nsPerS)
		recSelf = append(recSelf, float64(r.end-r.start-c)/nsPerS)
	}
	v["core.recover_self_s"] = mean(recSelf)
	v["store.read_s"] = mean(reads)

	acts := in.activities
	v["sched.picks_per_activity"] = ratio(float64(in.tr.picks.Load()), acts)
	v["store.batches_per_activity"] = ratio(float64(in.tr.batches.Load()), acts)
	v["store.events_per_activity"] = ratio(float64(in.tr.events.Load()), acts)
	v["store.bytes_per_activity"] = ratio(float64(in.tr.storeBytes.Load()), acts)
	if in.disk != nil {
		groups := float64(in.disk.CommitGroups)
		v["store.commit_groups_per_activity"] = ratio(groups, acts)
		v["store.records_per_group"] = ratio(float64(in.disk.GroupedRecords), groups)
		v["wal.fsyncs_per_activity"] = ratio(float64(in.disk.WALSyncs), acts)
	}
	v["wal.bytes_per_activity"] = ratio(in.walBytes, acts)
	v["store.snapshot_bytes"] = in.snapshotBytes
	v["wal.replay_records"] = in.replayRecords
	pct("wal.ship_lag_p99_frames", in.shipLag, 0.99, 1)
	v["wal.ship_drain_ms"] = in.shipDrainMs
	v["go.allocs_per_activity"] = ratio(float64(in.mem1.Mallocs-in.mem0.Mallocs), acts)
	v["go.gc_cycles_per_1k_activities"] = 1000 * ratio(float64(in.mem1.NumGC-in.mem0.NumGC), acts)
	v["device.fsync_p50_us"] = median(in.fsyncUs)
	v["trace.overhead_pct"] = 100 * ratio(in.untracedRate-in.tracedRate, in.untracedRate)

	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{v[name], unit}
	}
	sort.Strings(unresolved)
	return out, unresolved
}
