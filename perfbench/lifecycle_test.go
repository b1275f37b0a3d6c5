package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// startGroup starts a shell that forks a background child into its
// process group, so reaping only the leader would leave one behind. With
// ignoreTERM both ignore SIGTERM and only the SIGKILL escalation ends
// them.
func startGroup(t *testing.T, life *lifecycle, ignoreTERM bool) *child {
	t.Helper()
	script := "sleep 60 & sleep 60"
	if ignoreTERM {
		script = `trap "" TERM; ` + script
	}
	c, err := life.start(exec.Command("sh", "-c", script), func(string) {})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func assertReaped(t *testing.T, c *child, dir string) {
	t.Helper()
	if c.alive() {
		t.Errorf("process group %d still has running members", c.pgid)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("temporary directory %s still exists (%v)", dir, err)
	}
}

func newTestLifecycle(t *testing.T) (*lifecycle, string) {
	t.Helper()
	life, err := newLifecycle(filepath.Join(t.TempDir(), "scratch"))
	if err != nil {
		t.Fatal(err)
	}
	dir, err := life.tempDir("data-")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	return life, dir
}

func TestLifecycleCancelReapsGroup(t *testing.T) {
	life, dir := newTestLifecycle(t)
	c := startGroup(t, life, false)
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(50 * time.Millisecond); cancel() }()
	if err := c.wait(ctx, time.Second); !errors.Is(err, context.Canceled) {
		t.Errorf("wait = %v, want context.Canceled", err)
	}
	if err := life.close(); err != nil {
		t.Errorf("close: %v", err)
	}
	assertReaped(t, c, dir)
}

func TestLifecyclePanicReapsGroup(t *testing.T) {
	life, dir := newTestLifecycle(t)
	var c *child
	_, err := guarded(func() (*result, error) {
		c = startGroup(t, life, false)
		panic("boom")
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("guarded = %v, want the panic as an error", err)
	}
	if err := life.close(); err != nil {
		t.Errorf("close: %v", err)
	}
	assertReaped(t, c, dir)
}

func TestLifecycleKillsGroupIgnoringTERM(t *testing.T) {
	life, dir := newTestLifecycle(t)
	c := startGroup(t, life, true)
	time.Sleep(50 * time.Millisecond) // let the shell install its trap
	start := time.Now()
	c.stop(200 * time.Millisecond)
	if waited := time.Since(start); waited < 200*time.Millisecond {
		t.Errorf("stop returned after %v, before the grace period", waited)
	}
	if err := life.close(); err != nil {
		t.Errorf("close: %v", err)
	}
	assertReaped(t, c, dir)
}
