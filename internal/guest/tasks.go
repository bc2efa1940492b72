package guest

import (
	"encoding/binary"
	"fmt"

	"catalyzer/internal/serial"
)

// Typed kernel state. Tasks, threads and timers are the kernel's
// critical objects (§3.2): their payloads are structured — a task records
// its parent, a thread its task, a timer its task and interval — so the
// task hierarchy is recoverable from a checkpoint and its integrity is
// checkable after either restore path. This is the typed view behind the
// paper's "thread information" and "timers" examples of system state.

// Payload type tags.
const (
	tagTask   = 'T'
	tagThread = 'H'
	tagTimer  = 'M'
)

// RootTask is the parent index of the root task.
const RootTask = int32(-1)

// NewTask creates a task object. parent is the index of the parent task
// (RootTask for the init task). It returns the new task's index.
func (k *Kernel) NewTask(parent int32) (int32, error) {
	n := int32(k.byKind[KindTask])
	if parent != RootTask && (parent < 0 || parent >= n) {
		return 0, fmt.Errorf("guest: task parent %d out of range (%d tasks)", parent, n)
	}
	payload := make([]byte, 5)
	payload[0] = tagTask
	binary.LittleEndian.PutUint32(payload[1:], uint32(parent))
	var refs []serial.ObjectID
	if parent != RootTask {
		obj, err := k.taskObject(parent)
		if err != nil {
			return 0, err
		}
		refs = []serial.ObjectID{obj}
	}
	k.addTyped(KindTask, payload, refs)
	return n, nil
}

// NewThread creates a thread attached to a task, returning the thread
// index.
func (k *Kernel) NewThread(task int32) (int32, error) {
	obj, err := k.taskObject(task)
	if err != nil {
		return 0, err
	}
	n := int32(k.byKind[KindThread])
	payload := make([]byte, 5)
	payload[0] = tagThread
	binary.LittleEndian.PutUint32(payload[1:], uint32(task))
	k.addTyped(KindThread, payload, []serial.ObjectID{obj})
	return n, nil
}

// NewTimer creates a timer owned by a task with the given interval.
func (k *Kernel) NewTimer(task int32, intervalMS uint16) (int32, error) {
	obj, err := k.taskObject(task)
	if err != nil {
		return 0, err
	}
	n := int32(k.byKind[KindTimer])
	payload := make([]byte, 7)
	payload[0] = tagTimer
	binary.LittleEndian.PutUint32(payload[1:], uint32(task))
	binary.LittleEndian.PutUint16(payload[5:], intervalMS)
	k.addTyped(KindTimer, payload, []serial.ObjectID{obj})
	return n, nil
}

// addTyped appends a typed object, charging construction cost.
func (k *Kernel) addTyped(kind uint8, payload []byte, refs []serial.ObjectID) {
	k.materialize()
	k.env.Charge(k.env.Cost.GuestKernelObjectInit)
	id := serial.ObjectID(len(k.objects))
	k.objects = append(k.objects, serial.Object{ID: id, Kind: kind, Payload: payload, Refs: refs})
	k.byKind[kind]++
}

// taskObject finds the object ID of the idx-th task.
func (k *Kernel) taskObject(idx int32) (serial.ObjectID, error) {
	if idx < 0 {
		return 0, fmt.Errorf("guest: negative task index %d", idx)
	}
	seen := int32(0)
	objs := k.graph()
	for i := range objs {
		if objs[i].Kind != KindTask {
			continue
		}
		if seen == idx {
			return objs[i].ID, nil
		}
		seen++
	}
	return 0, fmt.Errorf("guest: task %d not found (%d tasks)", idx, seen)
}

// TaskInfo is one task in the recovered hierarchy.
type TaskInfo struct {
	Object serial.ObjectID
	Parent int32 // RootTask for the init task
}

// ThreadInfo is one recovered thread.
type ThreadInfo struct {
	Object serial.ObjectID
	Task   int32
}

// TimerInfo is one recovered timer.
type TimerInfo struct {
	Object     serial.ObjectID
	Task       int32
	IntervalMS uint16
}

// TaskTable is the typed view over the critical objects.
type TaskTable struct {
	Tasks   []TaskInfo
	Threads []ThreadInfo
	Timers  []TimerInfo
}

// TaskTable parses the typed critical state out of the object graph and
// validates its integrity: every payload well-formed, every parent/task
// reference in range, the task graph acyclic (parents precede children).
// It works identically on freshly built and restored kernels, which is
// how tests prove restore preserves system state, not just bytes.
func (k *Kernel) TaskTable() (*TaskTable, error) {
	t := &TaskTable{}
	objs := k.graph()
	for i := range objs {
		o := &objs[i]
		switch o.Kind {
		case KindTask:
			if len(o.Payload) != 5 || o.Payload[0] != tagTask {
				return nil, fmt.Errorf("guest: object %d: malformed task payload", o.ID)
			}
			parent := int32(binary.LittleEndian.Uint32(o.Payload[1:]))
			if parent != RootTask {
				if parent < 0 || int(parent) >= len(t.Tasks) {
					return nil, fmt.Errorf("guest: task %d references parent %d before it exists", len(t.Tasks), parent)
				}
			}
			t.Tasks = append(t.Tasks, TaskInfo{Object: o.ID, Parent: parent})
		case KindThread:
			if len(o.Payload) != 5 || o.Payload[0] != tagThread {
				return nil, fmt.Errorf("guest: object %d: malformed thread payload", o.ID)
			}
			task := int32(binary.LittleEndian.Uint32(o.Payload[1:]))
			if task < 0 || int(task) >= len(t.Tasks) {
				return nil, fmt.Errorf("guest: thread %d references unknown task %d", len(t.Threads), task)
			}
			t.Threads = append(t.Threads, ThreadInfo{Object: o.ID, Task: task})
		case KindTimer:
			if len(o.Payload) != 7 || o.Payload[0] != tagTimer {
				return nil, fmt.Errorf("guest: object %d: malformed timer payload", o.ID)
			}
			task := int32(binary.LittleEndian.Uint32(o.Payload[1:]))
			if task < 0 || int(task) >= len(t.Tasks) {
				return nil, fmt.Errorf("guest: timer %d references unknown task %d", len(t.Timers), task)
			}
			t.Timers = append(t.Timers, TimerInfo{
				Object:     o.ID,
				Task:       task,
				IntervalMS: binary.LittleEndian.Uint16(o.Payload[5:]),
			})
		}
	}
	return t, nil
}

// Equal reports whether two task tables describe identical hierarchies.
func (t *TaskTable) Equal(other *TaskTable) bool {
	if len(t.Tasks) != len(other.Tasks) ||
		len(t.Threads) != len(other.Threads) ||
		len(t.Timers) != len(other.Timers) {
		return false
	}
	for i := range t.Tasks {
		if t.Tasks[i] != other.Tasks[i] {
			return false
		}
	}
	for i := range t.Threads {
		if t.Threads[i] != other.Threads[i] {
			return false
		}
	}
	for i := range t.Timers {
		if t.Timers[i] != other.Timers[i] {
			return false
		}
	}
	return true
}

// Depth returns the depth of task i in the hierarchy (root = 0).
func (t *TaskTable) Depth(i int32) (int, error) {
	depth := 0
	for i != RootTask {
		if i < 0 || int(i) >= len(t.Tasks) {
			return 0, fmt.Errorf("guest: task index %d out of range", i)
		}
		i = t.Tasks[i].Parent
		depth++
		if depth > len(t.Tasks) {
			return 0, fmt.Errorf("guest: task hierarchy cycle detected")
		}
	}
	return depth - 1, nil
}
