package harness

import (
	"context"
	"errors"

	"gomd/internal/core"
)

// Drive describes one run for (*Supervisor).Drive.
type Drive struct {
	// Target is the absolute step to reach.
	Target int64
	// Every is the thermo interval: chunks end on its absolute grid, so
	// frames land on the same steps whether or not the run was resumed
	// off-grid. 0 runs to Target in one chunk.
	Every int
	// Boundary, when set, runs at every chunk boundary — the top of each
	// iteration, the last included — with the step reached and the
	// recoveries so far. A non-nil error ends the run with that error.
	Boundary func(step int64, recoveries int) error
	// Frame, when set, receives the thermo state after each chunk, once
	// per step: frames a replay passes again are not repeated. A non-nil
	// error ends the run.
	Frame func(core.Thermo) error
}

// Drive runs the started engine to d.Target in grid-aligned chunks — the
// one chunk loop behind mdrun, the serving daemon and the multi-process
// drills. Position is reread from Step() on every iteration and never
// carried over, so after ErrRestarted (a scratch rebuild on a fresh
// world) the same chunk and thermo schedule replays from step 0 on every
// process, which is what keeps their collective schedules aligned.
// Thermo is collective and therefore computed after every chunk, whether
// or not anyone wants the frame.
//
// Cancelling soft asks the run to stop: with checkpointing armed it
// drains to the next CheckpointEvery boundary, so a fresh generation is
// durable and the stopped run resumes bit-exactly; without, it stops at
// the boundary it is on. Cancelling hard stops at once, drain included,
// and returns hard's error. stopped reports a run that ended short of
// d.Target because it was asked to.
func (s *Supervisor) Drive(soft, hard context.Context, d Drive) (stopped bool, err error) {
	target, ctx, draining := d.Target, soft, false
	last := int64(-1)
	for {
		pos := s.Step()
		if d.Boundary != nil {
			if err := d.Boundary(pos, s.attempts); err != nil {
				return false, err
			}
		}
		if !draining && soft.Err() != nil {
			draining, ctx, target = true, hard, pos
			if every := int64(s.CheckpointEvery); every > 0 && s.CheckpointPath != "" {
				target = min((pos+every-1)/every*every, d.Target)
			}
		}
		if pos >= target {
			return pos < d.Target, nil
		}
		if err := hard.Err(); err != nil {
			return false, err
		}
		chunk := target - pos
		if every := int64(d.Every); every > 0 {
			chunk = min(chunk, every-pos%every)
		}
		if err := s.RunContext(ctx, int(chunk)); err != nil {
			if errors.Is(err, ErrRestarted) || ctx.Err() != nil {
				continue // replay, or classify the cancellation above
			}
			return false, err
		}
		th, err := s.Thermo()
		if err != nil {
			if errors.Is(err, ErrRestarted) {
				continue
			}
			return false, err
		}
		if d.Frame != nil && th.Step > last {
			last = th.Step
			if err := d.Frame(th); err != nil {
				return false, err
			}
		}
	}
}
