// Package ubf implements the paper's User-Based Firewall (§IV-D and
// reproducibility appendix; refs [30], [31]): a userspace daemon that
// receives NEW TCP/UDP connection attempts from the kernel's nfqueue
// hook and decides them by *user identity* rather than by
// port/protocol/service.
//
// The decision procedure, verbatim from the paper:
//
//	"During the establishment of a new connection an ident-like query
//	is sent from the receiving system to the initiating system to get
//	user information, and the same query run locally. The connection
//	is allowed if both the receiving and the initiating processes are
//	owned by the same user or if the connector is a member of the
//	primary group of the listener process."
//
// The listener's primary group is its *effective* GID, switchable
// with newgrp/sg — that is the opt-in lever for project-group
// services.
package ubf

import (
	"sync"
	"sync/atomic"

	"repro/internal/ids"
	"repro/internal/netsim"
)

// Decision records one verdict for audit/inspection.
type Decision struct {
	Flow    netsim.FlowTuple
	SrcUID  ids.UID
	DstUID  ids.UID
	DstEGID ids.GID
	Verdict netsim.Verdict
	Reason  string
	Cached  bool
}

// Config tunes the daemon.
type Config struct {
	// AllowGroupPeers enables the egid rule ("or the connector is a
	// member of the primary group of the listener process"). The
	// paper's deployment has it on; turning it off is the strictest
	// same-user-only mode.
	AllowGroupPeers bool
	// CacheVerdicts memoizes (srcUID, dstUID, dstEGID) decisions, the
	// way the production daemon avoids re-running ident for repeat
	// peers. Ablated in experiment E8.
	CacheVerdicts bool
	// FailOpen decides what to do when an ident query fails. The
	// paper's security posture is fail-closed (default false).
	FailOpen bool
}

// Daemon is the UBF userspace decision engine. One daemon can serve
// every host's hook (it is stateless apart from the cache), matching
// the paper's per-node daemons that share identical configuration.
type Daemon struct {
	cfg Config

	mu    sync.RWMutex
	cache map[cacheKey]cacheVal

	// Counters for the overhead experiment (E8).
	Decisions   atomic.Int64
	CacheHits   atomic.Int64
	Allowed     atomic.Int64
	Denied      atomic.Int64
	trail       []Decision
	trailEnable bool
}

type cacheKey struct {
	src        ids.UID
	dst        ids.UID
	egid       ids.GID
	srcInGroup bool
}

type cacheVal struct {
	verdict netsim.Verdict
	reason  string
}

// New creates a daemon.
func New(cfg Config) *Daemon {
	return &Daemon{cfg: cfg, cache: make(map[cacheKey]cacheVal)}
}

// EnableAudit records every decision for later inspection (tests and
// the leak scanner use this).
func (d *Daemon) EnableAudit() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.trailEnable = true
}

// Audit returns a copy of the decision trail.
func (d *Daemon) Audit() []Decision {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]Decision(nil), d.trail...)
}

// Hook returns the netsim.HookFunc to install on each host's
// firewall. It performs the two ident queries and applies the rule.
func (d *Daemon) Hook() netsim.HookFunc {
	return func(net *netsim.Network, flow netsim.FlowTuple) netsim.Verdict {
		d.Decisions.Add(1)

		// "the same query run locally": listener side.
		dstCred, errDst := net.Ident(flow.DstHost, flow.Proto, flow.DstPort)
		// "an ident-like query is sent ... to the initiating system":
		// connector side.
		srcCred, errSrc := net.Ident(flow.SrcHost, flow.Proto, flow.SrcPort)
		if errDst != nil || errSrc != nil {
			v := netsim.Drop
			if d.cfg.FailOpen {
				v = netsim.Accept
			}
			d.record(flow, ids.NoUID, ids.NoUID, ids.NoGID, v, "ident unavailable", false)
			return v
		}

		key := cacheKey{src: srcCred.UID, dst: dstCred.UID, egid: dstCred.EGID, srcInGroup: srcCred.InGroup(dstCred.EGID)}
		if d.cfg.CacheVerdicts {
			d.mu.RLock()
			cv, hit := d.cache[key]
			d.mu.RUnlock()
			if hit {
				d.CacheHits.Add(1)
				d.count(cv.verdict)
				d.record(flow, srcCred.UID, dstCred.UID, dstCred.EGID, cv.verdict, cv.reason, true)
				return cv.verdict
			}
		}

		verdict, reason := d.decide(srcCred, dstCred)
		if d.cfg.CacheVerdicts {
			d.mu.Lock()
			d.cache[key] = cacheVal{verdict, reason}
			d.mu.Unlock()
		}
		d.count(verdict)
		d.record(flow, srcCred.UID, dstCred.UID, dstCred.EGID, verdict, reason, false)
		return verdict
	}
}

// decide applies the paper's rule.
func (d *Daemon) decide(src, dst ids.Credential) (netsim.Verdict, string) {
	if src.UID == dst.UID {
		return netsim.Accept, "same user"
	}
	if d.cfg.AllowGroupPeers && src.InGroup(dst.EGID) {
		return netsim.Accept, "connector in listener primary group"
	}
	return netsim.Drop, "different user"
}

func (d *Daemon) count(v netsim.Verdict) {
	if v == netsim.Accept {
		d.Allowed.Add(1)
	} else {
		d.Denied.Add(1)
	}
}

func (d *Daemon) record(f netsim.FlowTuple, src, dst ids.UID, egid ids.GID, v netsim.Verdict, reason string, cached bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.trailEnable {
		d.trail = append(d.trail, Decision{Flow: f, SrcUID: src, DstUID: dst, DstEGID: egid, Verdict: v, Reason: reason, Cached: cached})
	}
}

// Reset rewinds the daemon to its freshly-constructed state: the
// verdict cache, all counters and the audit trail (including the
// enable flag — EnableAudit is post-construction state) are cleared.
// The configuration and any hooks already installed on hosts survive:
// the hook closure reads the daemon's live state, so a reset daemon
// keeps filtering with empty caches, exactly like a fresh one.
func (d *Daemon) Reset() {
	d.mu.Lock()
	clear(d.cache)
	d.trail = nil
	d.trailEnable = false
	d.mu.Unlock()
	d.Decisions.Store(0)
	d.CacheHits.Store(0)
	d.Allowed.Store(0)
	d.Denied.Store(0)
}

// FlushCache clears the verdict cache (e.g. after group-membership
// changes; the production daemon uses a TTL).
func (d *Daemon) FlushCache() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cache = make(map[cacheKey]cacheVal)
}

// InstallOn wires the daemon onto a host with the paper's standard
// port policy: inspect unprivileged ports (>= 1024) only.
func (d *Daemon) InstallOn(h *netsim.Host) {
	h.SetFirewall(d.Hook(), func(port int) bool { return port >= 1024 })
}
