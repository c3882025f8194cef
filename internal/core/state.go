// Package core implements the BioOpera engine — the paper's primary
// contribution (§3): a navigator that interprets OCR process graphs, a
// dispatcher that schedules activities onto cluster nodes through per-node
// program execution clients, and a recovery module that persists every
// state transition so month-long computations survive node crashes, server
// restarts, and manual suspension.
//
// The engine is internally synchronized: each instance's navigation is
// strictly serialized by an instance-sharded lock table, while independent
// instances execute and checkpoint concurrently. Cross-instance state (the
// activity queue, templates, placement) sits behind a thin synchronized
// front-end. The discrete-event simulator drives everything from a single
// goroutine, so sim runs stay deterministic; the local real-time driver
// delivers completions from worker goroutines directly.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bioopera/internal/ocr"
	"bioopera/internal/sim"
)

// TaskStatus is the lifecycle state of one task within a scope.
type TaskStatus uint8

// Task statuses.
const (
	// TaskInactive: activation conditions not yet decided.
	TaskInactive TaskStatus = iota
	// TaskReady: activated, waiting in the activity queue.
	TaskReady
	// TaskRunning: dispatched to a node (activities) or executing a
	// child scope (blocks/subprocesses).
	TaskRunning
	// TaskEnded: finished successfully (or failure ignored).
	TaskEnded
	// TaskFailed: permanently failed (retries exhausted, no handler).
	TaskFailed
	// TaskDead: skipped by dead-path elimination (all incoming
	// connectors false).
	TaskDead
)

// String names the status.
func (s TaskStatus) String() string {
	switch s {
	case TaskInactive:
		return "inactive"
	case TaskReady:
		return "ready"
	case TaskRunning:
		return "running"
	case TaskEnded:
		return "ended"
	case TaskFailed:
		return "failed"
	case TaskDead:
		return "dead"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Terminal reports whether no further transitions can happen.
func (s TaskStatus) Terminal() bool {
	return s == TaskEnded || s == TaskFailed || s == TaskDead
}

// InstanceStatus is the lifecycle state of a process instance.
type InstanceStatus uint8

// Instance statuses.
const (
	// InstanceRunning: navigation in progress.
	InstanceRunning InstanceStatus = iota
	// InstanceSuspended: running jobs may finish, nothing new starts.
	InstanceSuspended
	// InstanceDone: all tasks terminal, outputs mapped.
	InstanceDone
	// InstanceFailed: aborted by a task failure or by the user.
	InstanceFailed
)

// String names the status.
func (s InstanceStatus) String() string {
	switch s {
	case InstanceRunning:
		return "running"
	case InstanceSuspended:
		return "suspended"
	case InstanceDone:
		return "done"
	case InstanceFailed:
		return "failed"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// connState is the decision state of one incoming connector.
type connState uint8

const (
	connPending connState = iota
	connSatisfied
	connDead
)

// taskState is the runtime record of one task in one scope.
type taskState struct {
	Name     string
	Status   TaskStatus
	Attempts int // program-failure attempts consumed
	// Inputs are the evaluated argument bindings, fixed at activation
	// so retries are deterministic.
	Inputs map[string]ocr.Value
	// Outputs is the task's output data structure after completion.
	Outputs map[string]ocr.Value
	// ConnIn mirrors Process.Incoming(task) by index.
	ConnIn []connState
	// Node and Job identify the dispatched job (activities).
	Node string
	Job  string
	// AltOf is set when this task runs as the failure alternative of
	// another task.
	AltOf string
	// Accounting.
	ReadyAt   sim.Time
	StartedAt sim.Time
	EndedAt   sim.Time
	CPUTime   time.Duration
	// ChildWaiting counts live child scopes (blocks/subprocesses).
	ChildWaiting int
	// Results accumulates parallel-block element results by index.
	Results []ocr.Value
	// OverElems is the expanded OVER list of a parallel block, kept so
	// recovery can respawn lost element scopes.
	OverElems []ocr.Value
}

// scope is one lexical scope of a running instance: the root process, a
// block body instance, or a subprocess instance.
type scope struct {
	ID         string // unique within the instance, e.g. "" (root), "Alignment[3]", "Tree"
	Proc       *ocr.Process
	Parent     *scope
	ParentTask string // task in the parent that spawned this scope
	ElemIndex  int    // element index for parallel expansion, else -1
	Whiteboard map[string]ocr.Value
	Tasks      map[string]*taskState
	Done       bool
	children   map[string]*scope

	// Delta dirty tracking (§3.3: checkpoint granularity). The unit of
	// persistence is one record, not the whole scope: newborn marks the
	// immutable create record (written once), dirtyMeta the compact
	// dynamic record (whiteboard delta, done flag), and dirtyTasks the
	// individual task records — completing one child of an n-wide block
	// re-marshals one task, not n.
	newborn    bool                  // create + dynamic records never written
	dirtyMeta  bool                  // dynamic record needs rewriting
	dirtyTasks map[string]*taskState // task records needing rewriting

	// wbOwn tracks whiteboard keys owned by this scope's dynamic record:
	// true = the record carries an explicit value, false = the key is
	// masked from parent inheritance (the parent gained it after this
	// scope spawned). Keys absent from wbOwn re-inherit the parent's
	// value on recovery. wbFull scopes (root, subprocess bodies, migrated
	// whole-scope records) record the complete whiteboard instead.
	wbOwn  map[string]bool
	wbFull bool

	defunct   bool   // torn down by a sphere abort; ignore its completions
	procCache string // cached OCR text of Proc
}

// ownWB marks one whiteboard key as owned by this scope's dynamic record
// (present=false masks it from inheritance instead).
func (s *scope) ownWB(key string, present bool) {
	if s.wbFull {
		return
	}
	if s.wbOwn == nil {
		s.wbOwn = make(map[string]bool, 4)
	}
	s.wbOwn[key] = present
}

// procText returns (and caches) the scope's process in OCR text form —
// the self-contained persistence format.
func (s *scope) procText() string {
	if s.procCache == "" {
		s.procCache = ocr.Format(s.Proc)
	}
	return s.procCache
}

// env implements ocr.Env over a scope: plain names read the whiteboard,
// "task.field" reads a task's outputs.
type scopeEnv struct{ s *scope }

// Lookup implements ocr.Env.
func (e scopeEnv) Lookup(name string) (ocr.Value, bool) {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			taskName, field := name[:i], name[i+1:]
			ts, ok := e.s.Tasks[taskName]
			if !ok || ts.Outputs == nil {
				return ocr.Null, false
			}
			v, ok := ts.Outputs[field]
			return v, ok
		}
	}
	v, ok := e.s.Whiteboard[name]
	return v, ok
}

// Instance is one running (or finished) process.
type Instance struct {
	ID       string
	Template string // template name (root process name)
	Status   InstanceStatus
	Priority int
	Nice     bool
	Tenant   string // fair-share accounting bucket ("" = default)
	Started  sim.Time
	Ended    sim.Time

	root   *scope
	scopes map[string]*scope

	// stub, when non-nil, marks a lazily recovered instance: only the
	// metadata record was decoded, root/scopes are empty, and the raw
	// delta records wait here until hydrateLocked replays them on the
	// first mutating touch. Guarded by the shard lock.
	stub *stubState

	// status mirrors Status atomically so the dispatcher can test
	// dispatchability without taking the instance's shard lock. Written
	// only via setStatus (under the shard lock).
	status atomic.Int32

	// pendingKills buffers Executor.Kill requests issued during
	// navigation; they run once the instance's shard lock is released,
	// because executors may deliver the kill completion synchronously
	// (which would re-enter the same shard). Guarded by the shard lock.
	pendingKills []pendingKill

	// turnStart/turnLive stamp the current navigation turn for the
	// turn-latency metric (guarded by the shard lock; unused when the
	// engine has no metrics registry).
	turnStart sim.Time
	turnLive  bool

	// Checkpoint pipeline state, guarded by the shard lock. persist
	// snapshots the dirty set into pendingCkpts; endTurn drains them to
	// the flusher after releasing the shard, so record encoding and the
	// store batch never run inside the critical section.
	dirty          map[string]*scope // scopes with unpersisted changes
	pendingCkpts   []*ckpt           // snapshots awaiting flush, in seq order
	pendingDeletes []string          // instance-space keys to delete at next flush
	procRefs       map[string]bool   // process-text hashes already interned
	pendingDone    bool              // fire OnInstanceDone after this turn's flush

	// Commit gate: admits this instance's checkpoint batches strictly in
	// sequence order once they leave the shard's critical section, so a
	// later checkpoint can never overtake an earlier one. gateCond is
	// created lazily under gateMu. ckptSeq lives under gateMu (not the
	// shard) so quiesceCkpts can compare it against ckptDone while a turn
	// of another goroutine is still cutting checkpoints.
	gateMu   sync.Mutex
	gateCond *sync.Cond
	ckptSeq  uint64 // next checkpoint sequence number
	ckptDone uint64 // checkpoints committed (== seq of the next admitted)

	// Accounting (§5.2 measurements).
	Activities int           // |A|: executed activity completions
	CPU        time.Duration // CPU(Π): summed activity CPU time
	Failures   int           // infrastructure + program failures observed
	Retries    int           // re-dispatches after failures

	// Outputs are the root process outputs after completion.
	Outputs map[string]ocr.Value

	// FailureReason records why the instance failed.
	FailureReason string
}

// pendingKill is one deferred Executor.Kill request.
type pendingKill struct {
	job  string
	node string
}

// setStatus updates Status and its atomic mirror. Callers hold the
// instance's shard lock (or own the instance exclusively, as during
// construction and recovery).
func (in *Instance) setStatus(s InstanceStatus) {
	in.Status = s
	in.status.Store(int32(s))
}

// statusNow reads the status mirror without the shard lock.
func (in *Instance) statusNow() InstanceStatus { return InstanceStatus(in.status.Load()) }

// WALL returns the instance's wall-clock (virtual) duration so far or
// total.
func (in *Instance) WALL(now sim.Time) time.Duration {
	end := in.Ended
	if in.Status == InstanceRunning || in.Status == InstanceSuspended {
		end = now
	}
	return end.Sub(in.Started)
}

// Progress reports how far the instance is: terminal tasks over total
// tasks across all live scopes (§3.5: administrators are told "how far in
// their execution these processes are"). Parallel expansion grows the
// denominator as scopes appear, so progress is monotone within a scope set
// but may dip when a large block expands.
func (in *Instance) Progress() float64 {
	var done, total int
	//bioopera:allow maprange order-independent counting; Terminal is a pure predicate and nothing is emitted
	for _, sc := range in.scopes {
		if sc.defunct {
			continue
		}
		//bioopera:allow maprange order-independent counting over one scope's tasks
		for _, ts := range sc.Tasks {
			total++
			if ts.Status.Terminal() {
				done++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(done) / float64(total)
}

// CPUPerActivity returns CPU(Π)/|A| — the paper's per-activity average,
// "a rough approximation of the time needed per activity and an intuition
// about the average recovery time".
func (in *Instance) CPUPerActivity() time.Duration {
	if in.Activities == 0 {
		return 0
	}
	return in.CPU / time.Duration(in.Activities)
}

// scopePath builds the child scope ID for a task expansion.
func scopePath(parent *scope, task string, elem int) string {
	var base string
	if parent.ID == "" {
		base = task
	} else {
		base = parent.ID + "/" + task
	}
	if elem >= 0 {
		return fmt.Sprintf("%s[%d]", base, elem)
	}
	return base
}
