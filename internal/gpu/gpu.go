// Package gpu implements the accelerator substrate and the paper's
// GPU separation measures (§IV-F). GPUs "do not use a traditional
// security model for data resident in memory": device memory has no
// ownership concept and is NOT cleared between jobs. The paper's two
// measures are reproduced here:
//
//  1. assignment: the scheduler prolog chowns the GPU's /dev character
//     file to the allocated user's private group, so unassigned GPUs
//     are not visible at all;
//  2. clearing: the scheduler epilog runs the vendor memory-clear so
//     the next user cannot read the previous user's residue.
//
// Both are toggles so the baseline (leaky) behaviour is measurable.
package gpu

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/ids"
	"repro/internal/sched"
	"repro/internal/simos"
)

// Device is one GPU: a slab of device memory that persists across
// jobs unless explicitly cleared.
type Device struct {
	Index   int
	DevPath string
	node    *simos.Node

	mu       sync.Mutex
	mem      []byte  // allocated on first Write; nil reads as all-zeros
	written  bool    // any byte ever stored; lets Reset skip the memset
	assigned ids.UID // NoUID when free
	jobID    int
}

// GPU errors.
var (
	ErrNotAssigned = errors.New("gpu: device not assigned to caller")
	ErrBusy        = errors.New("gpu: device already assigned")
	ErrOOB         = errors.New("gpu: address out of range")
)

// MemSize is the simulated device memory per GPU.
const MemSize = 1 << 16

// newDevice registers a GPU on a node with unassigned (invisible)
// permissions.
func newDevice(node *simos.Node, index int) *Device {
	// The memory slab is allocated on first Write: device memory that
	// no job ever touches costs nothing, which is what lets a 10k-node
	// GPU fleet exist at all.
	d := &Device{
		Index:   index,
		DevPath: fmt.Sprintf("/dev/nvidia%d", index),
		node:    node,
	}
	d.assigned = ids.NoUID
	// Unassigned: mode 000 — "GPUs that have not been assigned to a
	// user are not visible at all."
	node.AddDev(d.DevPath, ids.Root, ids.RootGroup, 0o000)
	return d
}

// open validates device access: the caller must pass the /dev
// permission check, which after assignment admits only the assigned
// user's private group.
func (d *Device) open(cred ids.Credential) error {
	_, err := d.node.OpenDev(cred, d.DevPath)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNotAssigned, err)
	}
	return nil
}

// Write stores data at offset in device memory.
func (d *Device) Write(cred ids.Credential, offset int, data []byte) error {
	if err := d.open(cred); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if offset < 0 || offset+len(data) > MemSize {
		return fmt.Errorf("%w: [%d,%d)", ErrOOB, offset, offset+len(data))
	}
	if d.mem == nil {
		d.mem = make([]byte, MemSize)
	}
	copy(d.mem[offset:], data)
	d.written = true
	return nil
}

// Read returns length bytes at offset. If the device was handed over
// without clearing, this is where the previous user's residue leaks.
func (d *Device) Read(cred ids.Credential, offset, length int) ([]byte, error) {
	if err := d.open(cred); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if offset < 0 || offset+length > MemSize {
		return nil, fmt.Errorf("%w: [%d,%d)", ErrOOB, offset, offset+length)
	}
	if d.mem == nil {
		// Never written: all zeros, without materializing the slab.
		return make([]byte, length), nil
	}
	return append([]byte(nil), d.mem[offset:offset+length]...), nil
}

// clear zeroes device memory — the vendor-provided epilog step. A
// device nothing ever wrote to is already zero, so the memset is
// skipped (the epilog's cost stays proportional to actual use).
func (d *Device) clear() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.written {
		return
	}
	for i := range d.mem {
		d.mem[i] = 0
	}
	d.written = false
}

// Assigned returns the currently assigned user (NoUID if free).
func (d *Device) Assigned() ids.UID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.assigned
}

// Manager owns every GPU in the cluster and provides the scheduler
// prolog/epilog hooks.
type Manager struct {
	// ClearOnRelease runs the vendor memory-clear in the epilog
	// (paper's deployment: on; baseline: off).
	ClearOnRelease bool
	// AssignDevPerms narrows /dev permissions to the allocated user
	// (paper's deployment: on; baseline: world-accessible devices).
	AssignDevPerms bool

	mu     sync.Mutex
	byNode map[string][]*Device
	// dirty is set whenever device state may have changed — an
	// assignment through the prolog/epilog or a caller obtaining raw
	// device handles via Devices — so Reset on an untouched manager
	// skips the full device walk (O(nodes×gpus) at XXL scale).
	dirty bool
}

// NewManager equips each node with gpusPerNode devices.
func NewManager(nodes []*simos.Node, gpusPerNode int, assignPerms, clearOnRelease bool) *Manager {
	m := &Manager{
		ClearOnRelease: clearOnRelease,
		AssignDevPerms: assignPerms,
		byNode:         make(map[string][]*Device),
	}
	for _, n := range nodes {
		for i := 0; i < gpusPerNode; i++ {
			d := newDevice(n, i)
			if !assignPerms {
				// Baseline: devices world-accessible like stock
				// drivers (crw-rw-rw-).
				n.AddDev(d.DevPath, ids.Root, ids.RootGroup, 0o666)
			}
			m.byNode[n.Name] = append(m.byNode[n.Name], d)
		}
	}
	return m
}

// Reset rewinds every device to its freshly-constructed state: memory
// zeroed (skipped for devices never written to), assignment dropped,
// and the /dev node restored to the pristine ownership — invisible
// (root:root 000) under AssignDevPerms, world-accessible (0666)
// otherwise. The node's /dev entries themselves persist from
// construction; only their ownership is rewound here.
func (m *Manager) Reset() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirty {
		return nil
	}
	m.dirty = false
	mode := uint32(0o000)
	if !m.AssignDevPerms {
		mode = 0o666
	}
	for _, devs := range m.byNode {
		for _, d := range devs {
			d.mu.Lock()
			d.assigned = ids.NoUID
			d.jobID = 0
			d.mu.Unlock()
			d.clear()
			if err := d.node.ChownDev(ids.RootCred(), d.DevPath, ids.Root, ids.RootGroup, mode); err != nil {
				return err
			}
		}
	}
	return nil
}

// Devices returns the devices on a node.
func (m *Manager) Devices(node string) []*Device {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Raw handles escape the manager's bookkeeping: assume the caller
	// mutates device state so the next Reset does a full sweep.
	m.dirty = true
	return append([]*Device(nil), m.byNode[node]...)
}

// Prolog is the scheduler job-start hook: assign free GPUs on the
// node to the job's user by narrowing /dev permissions to their
// user-private group.
func (m *Manager) Prolog(job *sched.Job, node *simos.Node) error {
	if job.Spec.GPUs == 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Assignment mutates device + /dev state; Epilog only ever rewinds
	// what a Prolog assigned, so flagging here covers both hooks.
	m.dirty = true
	need := job.Spec.GPUs
	for _, d := range m.byNode[node.Name] {
		if need == 0 {
			break
		}
		d.mu.Lock()
		free := d.assigned == ids.NoUID
		if free {
			d.assigned = job.User
			d.jobID = job.ID
		}
		d.mu.Unlock()
		if !free {
			continue
		}
		if m.AssignDevPerms {
			if err := node.ChownDev(ids.RootCred(), d.DevPath, ids.Root, job.Cred.EGID, 0o660); err != nil {
				return err
			}
		}
		need--
	}
	if need > 0 {
		return fmt.Errorf("%w: node %s short %d gpus for job %d", ErrBusy, node.Name, need, job.ID)
	}
	return nil
}

// Epilog is the scheduler job-end hook: optionally clear memory, then
// return devices to the unassigned (invisible) state. A job without
// GPUs owns no device (only Prolog assigns one, and never for such a
// job), so its epilog has nothing to release.
func (m *Manager) Epilog(job *sched.Job, node *simos.Node) error {
	if job.Spec.GPUs == 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, d := range m.byNode[node.Name] {
		d.mu.Lock()
		owned := d.jobID == job.ID
		if owned {
			d.assigned = ids.NoUID
			d.jobID = 0
		}
		d.mu.Unlock()
		if !owned {
			continue
		}
		if m.ClearOnRelease {
			d.clear()
		}
		if m.AssignDevPerms {
			if err := node.ChownDev(ids.RootCred(), d.DevPath, ids.Root, ids.RootGroup, 0o000); err != nil {
				return err
			}
		}
	}
	return nil
}

// Register wires the manager into a scheduler.
func (m *Manager) Register(s *sched.Scheduler) {
	s.AddProlog(m.Prolog)
	s.AddEpilog(m.Epilog)
}
