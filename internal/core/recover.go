package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"bioopera/internal/codec"
	"bioopera/internal/ocr"
	"bioopera/internal/store"
)

// This file is the restart path of the recovery module (§3.2): Recover
// rebuilds unfinished instances from their persisted delta records after a
// server crash or failover. The rebuild is a three-phase pipeline:
//
//  1. A serial scan groups the Instance space's raw records by instance
//     (keys carry the instance ID, so no value is decoded except the small
//     inst/ metadata record).
//  2. Workers decode and rebuild instances in parallel — decoding records
//     and parsing process text dominate recovery cost and touch only
//     per-instance state, so they stripe across Options.RecoverWorkers
//     goroutines with no shared locks.
//  3. A serial pass in sorted instance order takes each shard lock, resumes
//     execution state, registers the instance, and emits events — so the
//     recovery trace is deterministic regardless of worker count.
//
// With Options.LazyRecovery, suspended instances skip phase 2 entirely:
// they come back as stubs (decoded metadata plus their raw records) and
// hydrate on first mutating touch, so boot time scales with the active
// fraction of the store, not its total size.

// scopeRec collects one scope's persisted delta records during recovery.
type scopeRec struct {
	scopeID string
	create  *scopeCreateDTO
	dyn     *scopeDynDTO
	tasks   map[string]taskDTO
}

// splitInstKey splits "<inst>/<rest>" (instance IDs contain no '/').
func splitInstKey(rest string) (instID, sub string, ok bool) {
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		return "", "", false
	}
	return rest[:slash], rest[slash+1:], true
}

// instGroup is one instance's share of the store scan: decoded metadata
// plus every raw scope/task/proc record, still undecoded.
type instGroup struct {
	id   string
	meta instanceDTO
	kvs  []store.KV
}

// stubState carries a lazily recovered instance's undecoded records until
// first touch. Guarded by the instance's shard lock.
type stubState struct {
	kvs []store.KV
}

// decodeInstanceRecords decodes one instance's raw records into the
// per-scope overlay structure and the interned process texts. Records of
// earlier engine generations — whole-scope scope/ records and JSON delta
// records — fail with codec.ErrLegacy.
func decodeInstanceRecords(kvs []store.KV) (map[string]*scopeRec, map[string]string, error) {
	recMap := make(map[string]*scopeRec)
	procs := make(map[string]string)
	rec := func(scopeID string) *scopeRec {
		r := recMap[scopeID]
		if r == nil {
			r = &scopeRec{scopeID: scopeID, tasks: make(map[string]taskDTO)}
			recMap[scopeID] = r
		}
		return r
	}
	for _, kv := range kvs {
		switch {
		case strings.HasPrefix(kv.Key, "scope/"):
			return nil, nil, fmt.Errorf("core: whole-scope record %s: %w", kv.Key, codec.ErrLegacy)
		case strings.HasPrefix(kv.Key, "scopec/"):
			dto, err := decodeCreate(kv.Value)
			if err != nil {
				return nil, nil, fmt.Errorf("core: scope-create record %s: %w", kv.Key, err)
			}
			rec(dto.ID).create = &dto
		case strings.HasPrefix(kv.Key, "scoped/"):
			_, sub, ok := splitInstKey(strings.TrimPrefix(kv.Key, "scoped/"))
			if !ok {
				continue
			}
			dto, err := decodeDyn(kv.Value)
			if err != nil {
				return nil, nil, fmt.Errorf("core: scope-dynamic record %s: %w", kv.Key, err)
			}
			scopeID := sub
			if scopeID == "-" {
				scopeID = ""
			}
			rec(scopeID).dyn = &dto
		case strings.HasPrefix(kv.Key, "task/"):
			_, sub, ok := splitInstKey(strings.TrimPrefix(kv.Key, "task/"))
			if !ok {
				continue
			}
			// The task name follows the last '/': scope IDs may nest
			// ("A/B[3]"), task names cannot contain '/'.
			slash := strings.LastIndexByte(sub, '/')
			if slash < 0 {
				continue
			}
			scopeID, task := sub[:slash], sub[slash+1:]
			if scopeID == "-" {
				scopeID = ""
			}
			dto, err := decodeTask(kv.Value)
			if err != nil {
				return nil, nil, fmt.Errorf("core: task record %s: %w", kv.Key, err)
			}
			if dto.Name == "" {
				dto.Name = task
			}
			rec(scopeID).tasks[dto.Name] = dto
		case strings.HasPrefix(kv.Key, "proc/"):
			_, hash, ok := splitInstKey(strings.TrimPrefix(kv.Key, "proc/"))
			if !ok {
				continue
			}
			procs[hash] = string(kv.Value)
		}
	}
	return recMap, procs, nil
}

// Recover rebuilds all unfinished instances from the store after a server
// restart or crash. Activities recorded as running are treated as lost and
// re-queued; in-flight navigation is re-derived.
//
// A corrupt or inconsistent record set fails only its own instance: the
// rest recover normally, each failure is reported through Options.OnError,
// and the joined errors are returned alongside the count of instances that
// did recover. An instance stored in a format of an earlier engine
// generation fails the same way, with codec.ErrLegacy: `bioopera migrate`
// converts the store offline.
//
// A federated engine (Options.Owns set) adopts only instances in its own
// partition; the rest stay in the store for their owners.
func (e *Engine) Recover() (int, error) { return e.RecoverOwned(nil) }

// RecoverOwned is the partition-scoped recovery entry point: it rebuilds
// only the unfinished instances for which owns returns true. Federation
// failover uses it to adopt exactly the orphaned partition a peer just
// claimed, without re-scanning instances this engine already runs (already
// registered instances are skipped either way). A nil owns falls back to
// Options.Owns, so RecoverOwned(nil) is Recover.
func (e *Engine) RecoverOwned(owns func(id string) bool) (int, error) {
	if owns == nil {
		owns = e.opts.Owns
	}
	kvs, err := e.opts.Store.List(store.Instance)
	if err != nil {
		return 0, err
	}

	// Phase 1 (serial): group raw records by instance. Only the small
	// inst/ metadata record is decoded here; everything else is deferred
	// to the workers (or, for lazy stubs, to first touch).
	var errs []error
	groups := make(map[string]*instGroup)
	group := func(id string) *instGroup {
		g := groups[id]
		if g == nil {
			g = &instGroup{id: id}
			groups[id] = g
		}
		return g
	}
	metas := make(map[string]bool)
	for _, kv := range kvs {
		if strings.HasPrefix(kv.Key, "inst/") {
			id := strings.TrimPrefix(kv.Key, "inst/")
			dto, err := decodeMeta(kv.Value)
			if err != nil {
				errs = append(errs, fmt.Errorf("core: instance record %s: %w", kv.Key, err))
				continue
			}
			if dto.ID != "" {
				id = dto.ID
			}
			g := group(id)
			g.meta = dto
			metas[id] = true
			continue
		}
		// Whole-scope scope/ records are grouped too, so that their
		// instance fails with codec.ErrLegacy rather than as rootless.
		for _, prefix := range [...]string{"scope/", "scopec/", "scoped/", "task/", "proc/"} {
			if strings.HasPrefix(kv.Key, prefix) {
				if instID, _, ok := splitInstKey(strings.TrimPrefix(kv.Key, prefix)); ok {
					g := group(instID)
					g.kvs = append(g.kvs, kv)
				}
				break
			}
		}
	}

	ids := make([]string, 0, len(metas))
	for id := range metas {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if owns != nil {
		kept := ids[:0]
		for _, id := range ids {
			if owns(id) {
				kept = append(kept, id)
			}
		}
		ids = kept
	}

	// Phase 2 (parallel): decode and rebuild. Worker w handles the sorted
	// indexes i with i%workers == w and writes only results[i]/buildErrs[i],
	// so the phase is lock-free; the per-worker parse cache still
	// deduplicates the N identical bodies of a parallel block, which land
	// on one worker because they belong to one instance.
	results := make([]*Instance, len(ids))
	buildErrs := make([]error, len(ids))
	workers := e.opts.RecoverWorkers
	if workers > len(ids) {
		workers = len(ids)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			procCache := make(map[string]*ocr.Process)
			for i := w; i < len(ids); i += workers {
				g := groups[ids[i]]
				if _, exists := e.lookup(g.id); exists {
					continue // already live (Recover on a running engine)
				}
				results[i], buildErrs[i] = e.buildRecovered(g, procCache)
			}
		}(w)
	}
	wg.Wait()

	// Phase 3 (serial, sorted order): resume execution state under each
	// instance's shard, register, emit, checkpoint. Serializing this phase
	// keeps the recovery event trace independent of the worker count.
	recovered := 0
	for i, id := range ids {
		if err := buildErrs[i]; err != nil {
			errs = append(errs, err)
			continue
		}
		in := results[i]
		if in == nil {
			continue
		}
		if _, exists := e.lookup(id); exists {
			continue
		}
		// Resume under the instance's shard so concurrent pumps that pick
		// up the requeued work serialize against the rebuild.
		mu := e.shardFor(id)
		mu.Lock()
		if in.stub == nil {
			e.resumeInstance(in)
		}
		e.emu.Lock()
		e.instances[id] = in
		e.order = append(e.order, id)
		// Track the numeric suffix so new IDs stay unique.
		var n int
		if _, err := fmt.Sscanf(id, "p%d", &n); err == nil && n > e.nextID {
			e.nextID = n
		}
		e.emu.Unlock()
		recovered++
		e.emit(Event{Kind: EvServerRecovered, Instance: id,
			Detail: fmt.Sprintf("status=%s", in.Status)})
		// Checkpoint what resuming re-derived.
		if len(in.dirty) > 0 || len(in.pendingDeletes) > 0 {
			e.persist(in)
		}
		e.endTurn(in, mu, false)
	}
	e.Pump()
	if e.opts.OnError != nil {
		for _, err := range errs {
			e.opts.OnError(err)
		}
	}
	return recovered, errors.Join(errs...)
}

// buildRecovered rebuilds one instance from its grouped records — or, with
// lazy recovery and a suspended instance, builds a stub that retains the
// raw records for hydration on first touch. Runs on recovery workers: it
// touches only the instance under construction and the worker's parse
// cache.
func (e *Engine) buildRecovered(g *instGroup, procCache map[string]*ocr.Process) (*Instance, error) {
	in := buildInstanceShell(g.meta)
	if e.opts.LazyRecovery && g.meta.Status == InstanceSuspended {
		// Record the interned-text hashes from the raw keys so later
		// checkpoints do not re-intern texts already on disk.
		for _, kv := range g.kvs {
			if strings.HasPrefix(kv.Key, "proc/") {
				if _, hash, ok := splitInstKey(strings.TrimPrefix(kv.Key, "proc/")); ok {
					in.procRefs[hash] = true
				}
			}
		}
		in.stub = &stubState{kvs: g.kvs}
		return in, nil
	}
	recMap, procTexts, err := decodeInstanceRecords(g.kvs)
	if err != nil {
		return nil, err
	}
	for hash := range procTexts {
		in.procRefs[hash] = true
	}
	if err := e.buildScopes(in, recMap, procTexts, procCache); err != nil {
		return nil, err
	}
	return in, nil
}

// buildInstanceShell constructs an Instance carrying only its metadata —
// the common base of a full rebuild and a lazy stub.
func buildInstanceShell(meta instanceDTO) *Instance {
	in := &Instance{
		ID: meta.ID, Template: meta.Template,
		Priority: meta.Priority, Nice: meta.Nice, Tenant: meta.Tenant,
		Started: meta.Started, Ended: meta.Ended,
		Activities: meta.Activities, CPU: meta.CPU,
		Failures: meta.Failures, Retries: meta.Retries,
		Outputs: meta.Outputs, FailureReason: meta.FailureReason,
		scopes:   make(map[string]*scope),
		procRefs: make(map[string]bool, 4),
	}
	in.setStatus(meta.Status)
	return in
}

// buildScopes reconstructs the instance's scope tree from its decoded
// records. It mutates only the instance under construction and marks
// nothing dirty, so recovery workers may run it concurrently for different
// instances.
func (e *Engine) buildScopes(in *Instance, recMap map[string]*scopeRec, procTexts map[string]string, procCache map[string]*ocr.Process) error {
	// Sort records so parents come before children (shorter IDs first;
	// root "" is shortest) — children re-inherit whiteboard values from
	// the already-rebuilt parent.
	scopeRecs := make([]*scopeRec, 0, len(recMap))
	for _, r := range recMap {
		scopeRecs = append(scopeRecs, r)
	}
	sort.Slice(scopeRecs, func(i, j int) bool {
		if len(scopeRecs[i].scopeID) != len(scopeRecs[j].scopeID) {
			return len(scopeRecs[i].scopeID) < len(scopeRecs[j].scopeID)
		}
		return scopeRecs[i].scopeID < scopeRecs[j].scopeID
	})
	parse := func(text, where string) (*ocr.Process, error) {
		if p, ok := procCache[text]; ok {
			return p, nil
		}
		p, err := ocr.ParseProcess(text)
		if err != nil {
			return nil, fmt.Errorf("core: scope %s has invalid process text: %w", where, err)
		}
		procCache[text] = p
		return p, nil
	}
	for _, r := range scopeRecs {
		where := in.ID + "/" + nzScope(r.scopeID)
		if r.create == nil {
			return fmt.Errorf("core: scope %s has no create record", where)
		}
		text, ok := procTexts[r.create.ProcRef]
		if !ok {
			return fmt.Errorf("core: scope %s references missing process text %q", where, r.create.ProcRef)
		}
		proc, err := parse(text, where)
		if err != nil {
			return err
		}
		sc := &scope{
			ID:         r.scopeID,
			Proc:       proc,
			ParentTask: r.create.ParentTask,
			ElemIndex:  r.create.ElemIndex,
			Whiteboard: make(map[string]ocr.Value),
			Tasks:      make(map[string]*taskState),
			children:   make(map[string]*scope),
		}
		if !r.create.IsRoot {
			parent := in.scopes[r.create.Parent]
			if parent == nil {
				return fmt.Errorf("core: scope %s has missing parent %q", where, r.create.Parent)
			}
			sc.Parent = parent
			parent.children[sc.ID] = sc
		} else {
			in.root = sc
		}
		// Whiteboard: the dynamic record's owned entries overlay what the
		// scope inherits from its parent; Full records are self-contained.
		if r.dyn != nil {
			sc.Done = r.dyn.Done
			if r.dyn.Full {
				sc.wbFull = true
				for k, v := range r.dyn.Entries {
					sc.Whiteboard[k] = v
				}
			} else {
				if sc.Parent != nil {
					for k, v := range sc.Parent.Whiteboard {
						sc.Whiteboard[k] = v
					}
				}
				for _, k := range r.dyn.Drop {
					delete(sc.Whiteboard, k)
					sc.ownWB(k, false)
				}
				entries := make([]string, 0, len(r.dyn.Entries))
				for k := range r.dyn.Entries {
					entries = append(entries, k)
				}
				sort.Strings(entries)
				for _, k := range entries {
					sc.Whiteboard[k] = r.dyn.Entries[k]
					sc.ownWB(k, true)
				}
			}
		}
		taskNames := make([]string, 0, len(r.tasks))
		for name := range r.tasks {
			taskNames = append(taskNames, name)
		}
		sort.Strings(taskNames)
		for _, name := range taskNames {
			td := r.tasks[name]
			sc.Tasks[td.Name] = &taskState{
				Name: td.Name, Status: td.Status, Attempts: td.Attempts,
				Inputs: td.Inputs, Outputs: td.Outputs,
				Node: td.Node, Job: td.Job, AltOf: td.AltOf,
				ReadyAt: td.ReadyAt, StartedAt: td.StartedAt, EndedAt: td.EndedAt,
				CPUTime: td.CPUTime, ChildWaiting: td.ChildWaiting,
				Results: td.Results, OverElems: td.OverElems,
				ConnIn: make([]connState, len(proc.Incoming(td.Name))),
			}
		}
		// Tasks present in the process but missing from the records
		// (never touched, so never checkpointed) start inactive.
		for _, t := range proc.Tasks {
			if _, ok := sc.Tasks[t.Name]; !ok {
				sc.Tasks[t.Name] = &taskState{
					Name:   t.Name,
					ConnIn: make([]connState, len(proc.Incoming(t.Name))),
				}
			}
		}
		in.scopes[sc.ID] = sc
	}
	if in.root == nil {
		return fmt.Errorf("core: instance %s has no root scope record", in.ID)
	}
	return nil
}

// resumeInstance restores execution state after the scope tree is rebuilt:
// lost work is requeued, waits re-armed, in-flight navigation re-derived.
// It is the effectful half of recovery — it touches the dispatcher indexes
// and emits events — so it runs serially under the instance's shard lock.
func (e *Engine) resumeInstance(in *Instance) {
	if in.Status == InstanceDone || in.Status == InstanceFailed {
		return
	}
	// Resume children before parents.
	ordered := make([]*scope, 0, len(in.scopes))
	for _, sc := range in.scopes {
		ordered = append(ordered, sc)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if len(ordered[i].ID) != len(ordered[j].ID) {
			return len(ordered[i].ID) > len(ordered[j].ID)
		}
		return ordered[i].ID < ordered[j].ID
	})
	for _, sc := range ordered {
		e.resumeScope(in, sc)
		if in.Status == InstanceFailed {
			return
		}
	}
	for _, sc := range ordered {
		e.maybeCompleteScope(in, sc)
		if in.Status == InstanceFailed || in.Status == InstanceDone {
			break
		}
	}
}

// hydrateLocked materializes a lazily recovered stub: the retained raw
// records are decoded, the scope tree rebuilt, and execution state resumed
// — the work Recover deferred. Caller holds the instance's shard lock and
// runs inside a turn, so checkpoints produced here flush at its endTurn.
// On error the stub is restored untouched, so the instance stays a valid
// meta-only shell and the caller's operation fails cleanly.
func (e *Engine) hydrateLocked(in *Instance) error {
	st := in.stub
	if st == nil {
		return nil
	}
	recMap, procTexts, err := decodeInstanceRecords(st.kvs)
	if err == nil {
		err = e.buildScopes(in, recMap, procTexts, make(map[string]*ocr.Process))
	}
	if err != nil {
		in.root = nil
		in.scopes = make(map[string]*scope)
		return fmt.Errorf("core: hydrating instance %s: %w", in.ID, err)
	}
	in.stub = nil
	for hash := range procTexts {
		in.procRefs[hash] = true
	}
	e.resumeInstance(in)
	e.emit(Event{Kind: EvServerRecovered, Instance: in.ID, Detail: "hydrated"})
	if len(in.dirty) > 0 || len(in.pendingDeletes) > 0 {
		e.persist(in)
	}
	return nil
}

// Hydrated reports whether the instance's full state is in memory (false
// only for lazy-recovery stubs that have not been touched yet). Callers
// that merely observe an instance — the monitor, Progress — see a
// meta-only view of stubs and need not force hydration.
func (e *Engine) Hydrated(id string) (bool, error) {
	in, ok := e.lookup(id)
	if !ok {
		return false, fmt.Errorf("%w: %s", ErrUnknownInstance, id)
	}
	mu := e.shardFor(id)
	mu.Lock()
	h := in.stub == nil
	mu.Unlock()
	return h, nil
}

// resumeScope restores per-task execution state of one scope: requeues
// lost work, respawns missing child scopes, and re-derives connector
// decisions for tasks that never activated.
func (e *Engine) resumeScope(in *Instance, sc *scope) {
	for _, t := range sc.Proc.Tasks {
		ts := sc.Tasks[t.Name]
		switch ts.Status {
		case TaskReady:
			// Was queued; re-queue.
			e.requeue(in, sc, t, ts)
		case TaskRunning:
			switch t.Kind {
			case ocr.KindActivity:
				if t.Await != "" {
					// Still waiting for its event; re-arm
					// the wait (signals buffered before the
					// crash are volatile and lost, as is a
					// signal — the sender re-sends).
					ts.Status = TaskInactive
					e.awaitEvent(in, sc, t, ts)
					continue
				}
				// Dispatched but no completion recorded: the
				// work is lost; re-queue (§3.3:
				// checkpointing at activity granularity).
				in.Failures++
				in.Retries++
				ts.Status = TaskReady
				ts.Node = ""
				e.emit(Event{Kind: EvTaskRetried, Instance: in.ID, Scope: sc.ID,
					Task: t.Name, Detail: "lost in server crash"})
				e.requeue(in, sc, t, ts)
			case ocr.KindBlock:
				e.resumeBlock(in, sc, t, ts)
			case ocr.KindSubprocess:
				e.resumeChildScope(in, sc, t, ts, func() {
					ts.ChildWaiting = 1
					e.spawnSubprocess(in, sc, t, ts)
				})
			}
		}
	}
	// Root activations are unconditional at scope start, so a root still
	// inactive in the checkpoint means its activation was lost (crash
	// between the scope's first checkpoint and the next one). Re-derive
	// it; activateTask is a no-op for tasks past inactive.
	if !sc.Done {
		e.activateRoots(in, sc)
		if in.Status == InstanceFailed {
			return
		}
	}
	// Re-derive connector decisions from terminal tasks so targets that
	// had not yet activated (or whose activation was not persisted)
	// activate now. Delivery skips targets that are no longer
	// inactive.
	for _, t := range sc.Proc.Tasks {
		ts := sc.Tasks[t.Name]
		if ts.Status == TaskEnded || ts.Status == TaskDead {
			e.propagate(in, sc, t, ts)
			if in.Status == InstanceFailed {
				return
			}
		}
	}
	e.touchMeta(in, sc)
}

// resumeChildScope handles a Running block/subprocess task whose single
// child scope may be missing (respawn) or already Done (redeliver its
// outputs — the crash happened between child completion and parent
// delivery).
func (e *Engine) resumeChildScope(in *Instance, sc *scope, t *ocr.Task, ts *taskState, respawn func()) {
	childID := scopePath(sc, t.Name, -1)
	child, ok := in.scopes[childID]
	if !ok {
		respawn()
		return
	}
	if child.Done {
		outputs := make(map[string]ocr.Value, len(child.Proc.Outputs))
		for _, o := range child.Proc.Outputs {
			if v, ok := child.Whiteboard[o]; ok {
				outputs[o] = v
			} else {
				outputs[o] = ocr.Null
			}
		}
		e.finishTask(in, sc, t, ts, outputs)
		return
	}
	// Derived state: one live child (task records do not persist it).
	ts.ChildWaiting = 1
}

// resumeBlock recreates block child scopes whose records were lost (crash
// between block activation and child persistence) and redelivers results
// from children that completed but whose delivery was not persisted.
// ChildWaiting and Results are recomputed here — they are not persisted.
func (e *Engine) resumeBlock(in *Instance, sc *scope, t *ocr.Task, ts *taskState) {
	if !t.Parallel {
		e.resumeChildScope(in, sc, t, ts, func() {
			child := e.newScope(in, sc, t.Name, -1, t.Body)
			copyWhiteboard(child, sc)
			ts.ChildWaiting = 1
			e.startScope(in, child)
		})
		return
	}
	n := len(ts.OverElems)
	if n == 0 {
		return
	}
	if len(ts.Results) != n {
		ts.Results = make([]ocr.Value, n)
	}
	waiting := 0
	var missing []int
	for i := 0; i < n; i++ {
		childID := scopePath(sc, t.Name, i)
		child, ok := in.scopes[childID]
		if ok {
			if child.Done {
				// Recompute the element result: delivery may
				// not have been persisted.
				ts.Results[i] = elementResult(child)
			} else {
				waiting++
			}
			continue
		}
		missing = append(missing, i)
		waiting++
	}
	ts.ChildWaiting = waiting
	if waiting == 0 {
		e.finishTask(in, sc, t, ts, map[string]ocr.Value{
			"results": ocr.List(ts.Results...),
		})
		return
	}
	for _, i := range missing {
		child := e.newScope(in, sc, t.Name, i, t.Body)
		copyWhiteboard(child, sc)
		child.Whiteboard[t.As] = ts.OverElems[i]
		child.ownWB(t.As, true)
		e.startScope(in, child)
	}
}
