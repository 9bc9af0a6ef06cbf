package simos

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/ids"
)

// NodeKind distinguishes the node roles the paper discusses: login
// nodes, data-transfer nodes and interactive/debug nodes remain
// multi-user even under whole-node scheduling (paper §IV-B), while
// compute nodes are allocated via the scheduler.
type NodeKind int

// Node kinds.
const (
	Compute NodeKind = iota
	Login
	DataTransfer
	InteractiveDebug
)

func (k NodeKind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Login:
		return "login"
	case DataTransfer:
		return "dtn"
	case InteractiveDebug:
		return "debug"
	default:
		return "unknown"
	}
}

// DevNode is a character-special file under /dev. The GPU separation
// measure works by narrowing Group/Mode on these (paper §IV-F).
type DevNode struct {
	Path  string
	Owner ids.UID
	Group ids.GID
	Mode  uint32 // permission bits only, e.g. 0660
}

// Node is one machine in the cluster: its process table, its /dev
// namespace, its memory capacity, and its PAM access hooks.
type Node struct {
	Name   string
	Kind   NodeKind
	Cores  int
	MemB   int64 // physical memory, bytes
	Procs  *Table
	mu     sync.RWMutex
	dev    map[string]*DevNode
	pam    []PAMHook
	downAt atomic.Int64 // nonzero once crashed; atomic so Down (first-fit asks every node) takes no lock
	clock  func() int64
}

// Node errors.
var (
	ErrAccessDenied = errors.New("simos: access denied by PAM")
	ErrNodeDown     = errors.New("simos: node is down")
	ErrNoSuchDev    = errors.New("simos: no such device")
)

// PAMHook is one module in a node's login stack. pam_slurm is
// implemented by the scheduler registering a hook that checks for a
// running job (paper §IV-B).
type PAMHook func(node *Node, uid ids.UID) error

// NewNode creates a node with the given geometry. clock supplies
// logical time (may be nil).
func NewNode(name string, kind NodeKind, cores int, memB int64, clock func() int64) *Node {
	if clock == nil {
		clock = func() int64 { return 0 }
	}
	n := &Node{
		Name:  name,
		Kind:  kind,
		Cores: cores,
		MemB:  memB,
		Procs: NewTable(clock),
		dev:   make(map[string]*DevNode),
		clock: clock,
	}
	n.spawnBaseDaemons()
	// The pristine mark is the three base daemons (PIDs 1..3): Reset
	// rewinds the process table to exactly this state.
	n.Procs.MarkPristine()
	return n
}

// spawnBaseDaemons starts the baseline daemons every Linux node runs;
// these are what users see in `ps` when hidepid is off.
func (n *Node) spawnBaseDaemons() {
	n.Procs.SpawnDaemon("systemd")
	n.Procs.SpawnDaemon("sshd")
	n.Procs.SpawnDaemon("slurmd", "-D")
}

// Reset rewinds the node to its freshly-constructed state: up (not
// crashed), process table back to the pristine base-daemon set with
// PID numbering rewound. Construction-time wiring survives: PAM hooks
// stay registered (the scheduler installs them once, at its own
// construction) and /dev nodes stay present — their ownership is
// restored by the GPU manager's Reset, which knows the pristine modes.
func (n *Node) Reset() {
	n.downAt.Store(0)
	n.Procs.Reset()
}

// AddPAMHook appends a module to the login stack.
func (n *Node) AddPAMHook(h PAMHook) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.pam = append(n.pam, h)
}

// ClearPAMHooks removes all modules (used to reconfigure).
func (n *Node) ClearPAMHooks() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.pam = nil
}

// Login attempts an ssh-style login for uid with the given credential,
// running the PAM stack; on success it spawns a shell process and
// returns it. This is the path pam_slurm gates on compute nodes.
func (n *Node) Login(cred ids.Credential) (*Process, error) {
	if n.Down() {
		return nil, fmt.Errorf("%w: %s", ErrNodeDown, n.Name)
	}
	n.mu.RLock()
	hooks := append([]PAMHook(nil), n.pam...)
	n.mu.RUnlock()
	for _, h := range hooks {
		if err := h(n, cred.UID); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrAccessDenied, err)
		}
	}
	return n.Procs.Spawn(cred, 1, "bash", "-l"), nil
}

// AddDev registers a /dev character file.
func (n *Node) AddDev(path string, owner ids.UID, group ids.GID, mode uint32) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dev[path] = &DevNode{Path: path, Owner: owner, Group: group, Mode: mode}
}

// ChownDev changes ownership/permissions of a device node; root only.
func (n *Node) ChownDev(actor ids.Credential, path string, owner ids.UID, group ids.GID, mode uint32) error {
	if !actor.IsRoot() {
		return fmt.Errorf("%w: chown %s", ErrPermission, path)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	d, ok := n.dev[path]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchDev, path)
	}
	d.Owner, d.Group, d.Mode = owner, group, mode
	return nil
}

// OpenDev checks whether cred may open the device for read/write
// using standard owner/group/other permission evaluation.
func (n *Node) OpenDev(cred ids.Credential, path string) (*DevNode, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	d, ok := n.dev[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchDev, path)
	}
	if cred.IsRoot() {
		return d, nil
	}
	var bits uint32
	switch {
	case cred.UID == d.Owner:
		bits = (d.Mode >> 6) & 7
	case cred.InGroup(d.Group):
		bits = (d.Mode >> 3) & 7
	default:
		bits = d.Mode & 7
	}
	if bits&6 != 6 { // need read+write to use an accelerator
		return nil, fmt.Errorf("%w: %s mode %o uid %d", ErrPermission, path, d.Mode, cred.UID)
	}
	return d, nil
}

// VisibleDevs lists device paths cred can open — "GPUs that have not
// been assigned to a user are not visible at all" (paper §IV-F).
func (n *Node) VisibleDevs(cred ids.Credential) []string {
	n.mu.RLock()
	paths := make([]string, 0, len(n.dev))
	for p := range n.dev {
		paths = append(paths, p)
	}
	n.mu.RUnlock()
	sort.Strings(paths)
	var out []string
	for _, p := range paths {
		if _, err := n.OpenDev(cred, p); err == nil {
			out = append(out, p)
		}
	}
	return out
}

// Crash marks the node down (e.g. after an OOM cascade) and kills all
// processes. Returns the number of processes that died.
func (n *Node) Crash() int {
	n.downAt.Store(n.clock() + 1)
	killed := 0
	for _, p := range n.Procs.All() {
		if err := n.Procs.Exit(p.PID); err == nil {
			killed++
		}
	}
	return killed
}

// Restore brings a crashed node back (fresh daemons).
func (n *Node) Restore() {
	n.downAt.Store(0)
	n.spawnBaseDaemons()
}

// Down reports whether the node has crashed.
func (n *Node) Down() bool {
	return n.downAt.Load() != 0
}

// CheckOOM inspects total RSS against physical memory. If usage
// exceeds capacity the node crashes, killing everything on it — the
// shared-node failure mode the whole-node policy avoids (paper §IV-B).
// It returns true and the number of killed processes if a crash
// happened.
func (n *Node) CheckOOM() (bool, int) {
	if n.Procs.TotalRSS() > n.MemB {
		return true, n.Crash()
	}
	return false, 0
}
