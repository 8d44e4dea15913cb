package health

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"gomd/internal/mpi"
	"gomd/internal/obs"
)

// RankSnapshot is one rank's state at hang-diagnosis time: its last
// heartbeat merged with its communication posture.
type RankSnapshot struct {
	Rank    int
	Step    int64
	Phase   string
	Beats   int64
	Stalled time.Duration // since the rank's last heartbeat change
	// Parked names the blocking primitive the rank is inside ("" when it
	// is not blocked in the messaging layer — e.g. stuck in compute).
	Parked    string
	Peer      int // blocking peer rank, -1 if none
	Tag       int
	ParkedFor time.Duration
	Inbox     int
	InboxCap  int
	Unmatched int
}

// HangError is the diagnosis a watchdog files when the run stops making
// progress: which ranks went silent, what every rank was doing (parked
// primitive, phase, mailbox depth), and the goroutine stacks at
// detection time. It travels as the Cause of an mpi.RankError, so
// supervisors recover from hangs exactly as they do from panics.
type HangError struct {
	// Deadline is the progress bound that was exceeded.
	Deadline time.Duration
	// Hung lists the ranks whose heartbeats exceeded the deadline.
	Hung []int
	// Ranks holds every rank's snapshot (the per-rank parked-primitive
	// diagnosis), indexed by rank.
	Ranks []RankSnapshot
	// Stacks is the full goroutine dump at detection time.
	Stacks []byte
}

// Error renders the per-rank diagnosis (stacks excluded: they ride in
// the RankError's Stack field).
func (e *HangError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "health: no progress within %v on rank(s) %v:", e.Deadline, e.Hung)
	for _, rs := range e.Ranks {
		fmt.Fprintf(&b, " rank %d [step %d, phase %s, stalled %v",
			rs.Rank, rs.Step, rs.Phase, rs.Stalled.Round(time.Millisecond))
		if rs.Parked != "" {
			fmt.Fprintf(&b, ", parked in %s", rs.Parked)
			if rs.Peer >= 0 {
				fmt.Fprintf(&b, " (peer %d, tag %d)", rs.Peer, rs.Tag)
			}
			fmt.Fprintf(&b, " for %v", rs.ParkedFor.Round(time.Millisecond))
		}
		fmt.Fprintf(&b, ", inbox %d/%d, %d unmatched]", rs.Inbox, rs.InboxCap, rs.Unmatched)
	}
	return b.String()
}

// minScanInterval floors a watchdog's scan period, a quarter of its
// Deadline.
const minScanInterval = 10 * time.Millisecond

// Watchdog turns heartbeat silence into a structured world abort. One
// watchdog spans one engine-run attempt: start it when the ranks begin
// stepping, stop it before tearing the engine down (between attempts
// heartbeats legitimately pause).
type Watchdog struct {
	// Mon supplies the heartbeats to scan.
	Mon *Monitor
	// Deadline is the per-rank progress bound: a rank whose beat count
	// does not change for this long is hung.
	Deadline time.Duration
	// World, when set, supplies comm-state snapshots for the diagnosis
	// and receives the abort. Optional: without it the diagnosis carries
	// heartbeats only and OnHang must be set.
	World *mpi.World
	// OnHang overrides the default firing action (abort World), for a
	// watchdog with no World to abort.
	OnHang func(*HangError)
	// Metrics, when set, receives the heartbeat gauges on every scan and
	// a health.hangs counter on firing.
	Metrics *obs.Registry

	stop chan struct{}
	done chan struct{}
}

// Start launches the scan goroutine. No-op on a nil watchdog.
func (w *Watchdog) Start() {
	if w == nil {
		return
	}
	if w.Mon == nil || w.Deadline <= 0 {
		panic("health: Watchdog needs Mon and a positive Deadline")
	}
	if w.World == nil && w.OnHang == nil {
		panic("health: Watchdog needs a World to abort or an OnHang override")
	}
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	go w.loop()
}

// Stop terminates the scan goroutine and waits for it. Idempotent and
// nil-safe (supervisors stop unconditionally on every exit path).
func (w *Watchdog) Stop() {
	if w == nil || w.stop == nil {
		return
	}
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	<-w.done
}

func (w *Watchdog) loop() {
	defer close(w.done)
	interval := max(w.Deadline/4, minScanInterval)
	n := w.Mon.Ranks()
	// Scan only the ranks this process hosts: on a process-spanning
	// (TCP) world, remote ranks never beat into the local monitor, and
	// treating their silence as a hang would false-fire on every scan.
	// Their posture still reaches the diagnosis through the snapshot
	// exchange in fire().
	scan := make([]int, 0, n)
	if w.World != nil {
		for _, r := range w.World.LocalRanks() {
			if r < n {
				scan = append(scan, r)
			}
		}
	} else {
		for r := 0; r < n; r++ {
			scan = append(scan, r)
		}
	}
	lastCount := make([]int64, n)
	lastChange := make([]time.Time, n)
	base := time.Now()
	for _, r := range scan {
		lastCount[r] = w.Mon.Rank(r).Count()
		lastChange[r] = base
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C:
		}
		if w.World != nil && w.World.Aborted() != nil {
			return // already dead by some other failure; nothing to add
		}
		now := time.Now()
		stale := make([]time.Duration, n)
		var hung []int
		for _, r := range scan {
			if c := w.Mon.Rank(r).Count(); c != lastCount[r] {
				lastCount[r] = c
				lastChange[r] = now
			}
			stale[r] = now.Sub(lastChange[r])
			if stale[r] > w.Deadline {
				hung = append(hung, r)
			}
		}
		w.Mon.Publish(w.Metrics)
		if len(hung) == 0 {
			continue
		}
		w.fire(now, hung, stale)
		return
	}
}

// fire assembles the diagnosis and either hands it to OnHang or files
// it as a RankError abort on the world.
func (w *Watchdog) fire(now time.Time, hung []int, stale []time.Duration) {
	if w.Metrics != nil {
		w.Metrics.Counter("health.hangs").Inc()
	}
	var comm []mpi.CommState
	if w.World != nil {
		comm = w.World.SnapshotComm()
	}
	n := w.Mon.Ranks()
	snaps := make([]RankSnapshot, n)
	for r := 0; r < n; r++ {
		b := w.Mon.Rank(r)
		rs := RankSnapshot{
			Rank: r, Step: b.Step(), Phase: b.Phase().String(),
			Beats: b.Count(), Stalled: stale[r], Peer: -1,
		}
		if r < len(comm) {
			cs := comm[r]
			rs.Inbox, rs.InboxCap, rs.Unmatched = cs.Inbox, cs.InboxCap, cs.Unmatched
			if cs.Parked != nil {
				rs.Parked = cs.Parked.Op
				rs.Peer = cs.Parked.Peer
				rs.Tag = cs.Parked.Tag
				rs.ParkedFor = now.Sub(cs.Parked.Since)
			}
		}
		snaps[r] = rs
	}
	stacks := make([]byte, 1<<20)
	stacks = stacks[:runtime.Stack(stacks, true)]
	he := &HangError{Deadline: w.Deadline, Hung: hung, Ranks: snaps, Stacks: stacks}
	if w.OnHang != nil {
		w.OnHang(he)
		return
	}
	w.World.Abort(&mpi.RankError{Rank: culprit(hung, snaps, stale), Cause: he, Stack: stacks})
}

// culprit attributes the hang to one rank. A rank that went silent
// outside the messaging layer — not parked in any primitive, or parked
// by an injected hang — is the root cause; ranks parked in real
// Send/Recv/collectives are its victims (they are waiting on someone).
// That includes ranks parked in "ckpt-commit" (the distributed
// checkpoint's vote/release waits): a process that dies mid-commit
// strands its peers there, and they must classify as victims so the
// diagnosis points at the dead process, not the commit barrier.
// Ties break toward the stalest rank.
func culprit(hung []int, snaps []RankSnapshot, stale []time.Duration) int {
	best, bestRoot := -1, false
	for _, r := range hung {
		root := snaps[r].Parked == "" || snaps[r].Parked == "injected-hang"
		switch {
		case best < 0,
			root && !bestRoot,
			root == bestRoot && stale[r] > stale[best]:
			best, bestRoot = r, root
		}
	}
	return best
}
