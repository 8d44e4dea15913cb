package mpi

import (
	"testing"
	"time"
)

// TestWorldOptionsDefaults: zero options adopt the 30s mailbox-stall
// bound and the 2s straggler grace; explicit and negative values pass
// through untouched.
func TestWorldOptionsDefaults(t *testing.T) {
	o := WorldOptions{}.withDefaults()
	if o.MailboxStall != defaultMailboxStall {
		t.Errorf("MailboxStall default = %v, want %v", o.MailboxStall, defaultMailboxStall)
	}
	if o.StragglerGrace != defaultStragglerGrace {
		t.Errorf("StragglerGrace default = %v, want %v", o.StragglerGrace, defaultStragglerGrace)
	}
	if o.RecvStall != 0 {
		t.Errorf("RecvStall default = %v, want 0 (unbounded)", o.RecvStall)
	}
	o = WorldOptions{
		MailboxStall:   time.Second,
		RecvStall:      time.Minute,
		StragglerGrace: -1,
	}.withDefaults()
	if o.MailboxStall != time.Second || o.RecvStall != time.Minute || o.StragglerGrace != -1 {
		t.Errorf("explicit options rewritten: %+v", o)
	}
}

// TestParkOpNames: the primitive-name mapping, including the reserved
// collective tag ranges (a rank parked inside an allreduce round must
// read "MPI_Allreduce", not a bare send/recv).
func TestParkOpNames(t *testing.T) {
	cases := []struct {
		op   parkOp
		tag  int
		want string
	}{
		{parkSend, 7, "MPI_Send"},
		{parkRecv, 7, "MPI_Wait"},
		{parkHang, 0, "injected-hang"},
		{parkSend, tagTreeSum, "MPI_Allreduce"},
		{parkRecv, tagTreeMax, "MPI_Allreduce"},
		{parkRecv, tagBarrier, "MPI_Barrier"},
		{parkSend, tagButterfly, "MPI_Allreduce"},
	}
	for _, c := range cases {
		if got := parkOpName(c.op, c.tag); got != c.want {
			t.Errorf("parkOpName(%d, %d) = %q, want %q", c.op, c.tag, got, c.want)
		}
	}
}
