package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestRun drives the daemon in-process through run(): usage errors exit 2
// before anything is opened, runtime failures exit 1 naming what failed,
// and a daemon that ran a job to done drains on stop and exits 0 with its
// journal flushed.
func TestRun(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	file := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	underFile := filepath.Join(file, "data")

	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr []string
		job    bool // run one job to done over HTTP, then stop
	}{
		{name: "unknown flag", args: []string{"-nope"}, code: 2,
			stderr: []string{"flag provided but not defined"}},
		{name: "bad fault spec", args: []string{"-fault", "explode:step=3"}, code: 2,
			stderr: []string{"mdserve:", "explode"}},
		{name: "data under a regular file", args: []string{"-addr", "127.0.0.1:0", "-data", underFile}, code: 1,
			stderr: []string{underFile}},
		{name: "unbindable addr", args: []string{"-addr", busy.Addr().String()}, code: 1,
			stderr: []string{busy.Addr().String()}},
		{name: "one job then stop", args: []string{"-addr", "127.0.0.1:0"}, code: 0, job: true,
			stderr: []string{"listening on", "draining", "journal flushed, exiting 0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			addrFile := filepath.Join(dir, "addr")
			args := append([]string{"-data", filepath.Join(dir, "data"), "-addr-file", addrFile}, tc.args...)
			stop := make(chan os.Signal, 1)
			var out, errb bytes.Buffer
			done := make(chan int, 1)
			go func() { done <- run(args, &out, &errb, stop) }()
			if tc.job {
				runOneJob(t, waitAddr(t, addrFile, done))
				stop <- syscall.SIGTERM
			}
			var code int
			select {
			case code = <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("run did not return within 60 s")
			}
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstderr:\n%s", code, tc.code, &errb)
			}
			for _, want := range tc.stderr {
				if !strings.Contains(errb.String(), want) {
					t.Errorf("stderr missing %q:\n%s", want, &errb)
				}
			}
			if tc.code == 2 {
				if _, err := os.Stat(filepath.Join(dir, "data")); !os.IsNotExist(err) {
					t.Errorf("a usage error left the data directory behind (%v)", err)
				}
			}
		})
	}
}

// waitAddr returns the address the daemon wrote to addrFile, failing the
// test if run returns first.
func waitAddr(t *testing.T, addrFile string, done <-chan int) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			return string(b)
		}
		select {
		case code := <-done:
			t.Fatalf("run exited %d before listening", code)
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("the daemon never wrote its address")
	return ""
}

// runOneJob submits a 20-step LJ job and polls its status until done.
func runOneJob(t *testing.T, addr string) {
	t.Helper()
	base := "http://" + addr + "/api/v1/jobs"
	resp, err := http.Post(base, "application/json", strings.NewReader(`{"workload":"lj","atoms":256,"steps":20}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || sub.ID == "" {
		t.Fatalf("submit: status %d, id %q, %v", resp.StatusCode, sub.ID, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State string `json:"state"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case "done":
			return
		case "failed", "cancelled":
			t.Fatalf("job %s ended %s", sub.ID, st.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30 s", sub.ID, st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
