package core

import (
	"fmt"
	"sort"

	"bioopera/internal/ocr"
)

// This file implements spheres of atomicity (§3.1: OCR "supports advanced
// programming constructs such as exception handling, event handling, and
// spheres of atomicity ... allowing the process designer to define
// sophisticated failure handlers as part of the process (such as undo
// actions, alternative executions, ...)").
//
// A block marked ATOMIC executes all-or-nothing: when any task inside it
// fails permanently, the engine kills the sphere's in-flight activities,
// runs the UNDO programs of its completed activities in reverse completion
// order, discards the sphere's scopes, and then applies the block's own
// failure handling — RETRY re-runs the whole sphere from scratch;
// ON FAILURE IGNORE / ALTERNATIVE / ABORT behave as for any task. Spheres
// nest: a sphere whose retries are exhausted fails into its own enclosing
// sphere, if any.

// enclosingSphere walks up from the scope containing a failing task and
// returns the nearest enclosing atomic block (its scope, task and state),
// or nils when the failure is not inside any sphere.
func enclosingSphere(sc *scope) (*scope, *ocr.Task, *taskState) {
	for cur := sc; cur.Parent != nil; cur = cur.Parent {
		pt := cur.Parent.Proc.Task(cur.ParentTask)
		if pt != nil && pt.Kind == ocr.KindBlock && pt.Atomic {
			return cur.Parent, pt, cur.Parent.Tasks[cur.ParentTask]
		}
	}
	return nil, nil, nil
}

// failTask handles a task's permanent failure under FailAbort semantics:
// abort the nearest enclosing sphere of atomicity, or fail the whole
// instance when there is none.
func (e *Engine) failTask(in *Instance, sc *scope, t *ocr.Task, ts *taskState, cause error) {
	ts.Status = TaskFailed
	ts.EndedAt = e.now()
	e.touchTask(in, sc, ts)
	e.emit(Event{Kind: EvTaskFailed, Instance: in.ID, Scope: sc.ID, Task: t.Name, Detail: cause.Error()})
	if sphereSc, sphereTask, sphereTs := enclosingSphere(sc); sphereSc != nil {
		e.abortSphere(in, sphereSc, sphereTask, sphereTs,
			fmt.Errorf("task %s/%s failed: %v", sc.ID, t.Name, cause))
		return
	}
	e.failInstance(in, fmt.Sprintf("task %s failed: %v", t.Name, cause))
}

// abortSphere tears down an atomic block after an inner failure and
// applies the block's failure handling.
func (e *Engine) abortSphere(in *Instance, sc *scope, t *ocr.Task, ts *taskState, cause error) {
	e.emit(Event{Kind: EvSphereAborted, Instance: in.ID, Scope: sc.ID, Task: t.Name, Detail: cause.Error()})

	// 1. Gather the sphere's scope subtree, deterministically ordered.
	var subtree []*scope
	var gather func(s *scope)
	gather = func(s *scope) {
		subtree = append(subtree, s)
		ids := make([]string, 0, len(s.children))
		for id := range s.children {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			gather(s.children[id])
		}
	}
	rootIDs := make([]string, 0, len(sc.children))
	for id, child := range sc.children {
		if child.ParentTask == t.Name {
			rootIDs = append(rootIDs, id)
		}
	}
	sort.Strings(rootIDs)
	for _, id := range rootIDs {
		gather(sc.children[id])
	}
	for _, s := range subtree {
		s.defunct = true
	}

	// 2. Drop queued work and kill running work belonging to the sphere.
	// The shard we hold covers only this instance, so the dispatcher maps
	// are scanned under dmu and filtered to our instance; kills are
	// deferred to endTurn (executors may deliver the kill completion
	// synchronously, which would re-enter this shard).
	e.dmu.Lock()
	var queuedIDs []string
	for id, ref := range e.queued {
		if ref.inst == in && ref.sc.defunct {
			queuedIDs = append(queuedIDs, id)
		}
	}
	sort.Strings(queuedIDs)
	for _, id := range queuedIDs {
		e.sched.Remove(id)
		delete(e.queued, id)
	}
	var runningIDs []string
	for id, ref := range e.running {
		if ref.inst == in && ref.sc.defunct {
			runningIDs = append(runningIDs, id)
		}
	}
	sort.Strings(runningIDs)
	for _, id := range runningIDs {
		in.pendingKills = append(in.pendingKills, pendingKill{job: id, node: e.running[id].node})
	}
	e.dmu.Unlock()

	// 3. Undo completed activities in reverse completion order.
	type undoItem struct {
		sc *scope
		t  *ocr.Task
		ts *taskState
	}
	var undos []undoItem
	for _, s := range subtree {
		for _, bt := range s.Proc.Tasks {
			bts := s.Tasks[bt.Name]
			if bt.Kind == ocr.KindActivity && bt.Undo != "" && bts.Status == TaskEnded {
				undos = append(undos, undoItem{s, bt, bts})
			}
		}
	}
	sort.Slice(undos, func(i, j int) bool {
		if undos[i].ts.EndedAt != undos[j].ts.EndedAt {
			return undos[i].ts.EndedAt > undos[j].ts.EndedAt // reverse order
		}
		if undos[i].sc.ID != undos[j].sc.ID {
			return undos[i].sc.ID > undos[j].sc.ID
		}
		return undos[i].t.Name > undos[j].t.Name
	})
	for _, u := range undos {
		e.runUndo(in, u.sc, u.t, u.ts)
	}

	// 4. Discard the sphere's scopes. The store deletes ride the next
	// checkpoint batch — the same atomic write that persists the block
	// reset below — so a crash can never observe the block reset with the
	// old child records still present (which recovery would resurrect).
	// Interned process texts are left in place: the text is shared (a
	// sphere retry re-creates scopes with the same hash) and archive
	// collects unreferenced ones.
	for _, s := range subtree {
		delete(in.scopes, s.ID)
		delete(in.dirty, s.ID)
		in.pendingDeletes = append(in.pendingDeletes,
			scopeCreateKey(in.ID, s.ID),
			scopeDynKey(in.ID, s.ID))
		for _, bt := range s.Proc.Tasks {
			in.pendingDeletes = append(in.pendingDeletes, taskKey(in.ID, s.ID, bt.Name))
		}
		if s.Parent != nil {
			delete(s.Parent.children, s.ID)
		}
	}

	// 5. Reset the block task and apply its failure handling (RETRY
	// re-runs the sphere from scratch; otherwise IGNORE / ALTERNATIVE /
	// ABORT).
	ts.Outputs = nil
	ts.Results = nil
	ts.OverElems = nil
	ts.ChildWaiting = 0
	ts.Status = TaskRunning
	e.touchTask(in, sc, ts)
	e.persist(in)
	e.handleProgramFailure(in, sc, t, ts, cause)
}

// runUndo invokes an activity's compensation program with the activity's
// inputs and outputs merged. Undo failures are recorded but do not stop
// the sphere abort (compensations must be best-effort).
func (e *Engine) runUndo(in *Instance, sc *scope, t *ocr.Task, ts *taskState) {
	prog, ok := e.opts.Library.Lookup(t.Undo)
	if !ok {
		e.emit(Event{Kind: EvUndoFailed, Instance: in.ID, Scope: sc.ID, Task: t.Name,
			Detail: fmt.Sprintf("undo program %q not registered", t.Undo)})
		return
	}
	args := make(map[string]ocr.Value, len(ts.Inputs)+len(ts.Outputs))
	for k, v := range ts.Inputs {
		args[k] = v
	}
	for k, v := range ts.Outputs {
		args[k] = v
	}
	_, err := prog.Run(ProgramCtx{
		Instance: in.ID,
		Task:     t.Name,
		Attempt:  ts.Attempts,
		Node:     ts.Node,
	}, args)
	if err != nil {
		e.emit(Event{Kind: EvUndoFailed, Instance: in.ID, Scope: sc.ID, Task: t.Name, Detail: err.Error()})
		return
	}
	e.emit(Event{Kind: EvUndoRun, Instance: in.ID, Scope: sc.ID, Task: t.Name, Detail: t.Undo})
}
