package harness

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"gomd/internal/core"
	"gomd/internal/workload"
)

// driveFrames drives sup to target and returns the steps it delivered
// frames for. stopAt, when positive, cancels the stop request from the
// frame of that step — so it is first seen at that step's boundary.
func driveFrames(t *testing.T, sup *Supervisor, target int64, every int, stopAt int64) (frames []int64, stopped bool) {
	t.Helper()
	soft, stop := context.WithCancel(context.Background())
	defer stop()
	stopped, err := sup.Drive(soft, context.Background(), Drive{
		Target: target,
		Every:  every,
		Boundary: func(step int64, _ int) error {
			if step != sup.Step() {
				t.Errorf("Boundary(%d) at step %d", step, sup.Step())
			}
			return nil
		},
		Frame: func(th core.Thermo) error {
			frames = append(frames, th.Step)
			if th.Step == stopAt {
				stop()
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Drive: %v", err)
	}
	return frames, stopped
}

func startLJ(t *testing.T, sup *Supervisor) *Supervisor {
	t.Helper()
	sup.Factory, sup.Ranks = wlFactory(workload.LJ, 256, 1, nil), 1
	if err := sup.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(sup.Close)
	return sup
}

// TestDriveGridAligned: chunks end on the absolute Every grid wherever
// the run starts, and on the target.
func TestDriveGridAligned(t *testing.T) {
	sup := startLJ(t, &Supervisor{})
	if err := sup.Run(150); err != nil { // a run resumed off the grid
		t.Fatal(err)
	}
	frames, stopped := driveFrames(t, sup, 210, 20, 0)
	if want := []int64{160, 180, 200, 210}; !reflect.DeepEqual(frames, want) || stopped {
		t.Errorf("frames %v stopped=%v, want %v and not stopped", frames, stopped, want)
	}
}

// TestDriveStopRequest: a stop request drains to the next checkpoint
// boundary when checkpointing is armed (so the stopped run is resumable)
// and stops where it is otherwise.
func TestDriveStopRequest(t *testing.T) {
	armed := startLJ(t, &Supervisor{CheckpointEvery: 30, CheckpointPath: filepath.Join(t.TempDir(), "run.ckpt")})
	frames, stopped := driveFrames(t, armed, 100, 20, 40)
	if want := []int64{20, 40, 60}; !reflect.DeepEqual(frames, want) || !stopped || armed.Step() != 60 {
		t.Errorf("checkpointing: frames %v stopped=%v step %d, want %v, stopped at 60", frames, stopped, armed.Step(), want)
	}

	off := startLJ(t, &Supervisor{})
	frames, stopped = driveFrames(t, off, 100, 20, 40)
	if want := []int64{20, 40}; !reflect.DeepEqual(frames, want) || !stopped || off.Step() != 40 {
		t.Errorf("no checkpointing: frames %v stopped=%v step %d, want %v, stopped at 40", frames, stopped, off.Step(), want)
	}

	// A drain that reaches the target anyway is a finished run.
	done := startLJ(t, &Supervisor{CheckpointEvery: 30, CheckpointPath: filepath.Join(t.TempDir(), "run.ckpt")})
	if _, stopped := driveFrames(t, done, 50, 20, 40); stopped || done.Step() != 50 {
		t.Errorf("drain past the target: stopped=%v step %d, want a finished run at 50", stopped, done.Step())
	}
}

// TestDriveHardStop: cancelling hard ends the run at the boundary it is
// on with hard's error, drain or no drain.
func TestDriveHardStop(t *testing.T) {
	sup := startLJ(t, &Supervisor{CheckpointEvery: 30, CheckpointPath: filepath.Join(t.TempDir(), "run.ckpt")})
	hard, kill := context.WithCancel(context.Background())
	defer kill()
	_, err := sup.Drive(hard, hard, Drive{Target: 100, Every: 20, Frame: func(th core.Thermo) error {
		if th.Step == 40 {
			kill()
		}
		return nil
	}})
	if err != context.Canceled || sup.Step() != 40 {
		t.Errorf("err %v at step %d, want context.Canceled at 40", err, sup.Step())
	}
}
