package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// lifecycle owns every process and temporary directory a run creates, so
// that one call to close, deferred at the top of the run, reaps them on
// every exit path: success, error, panic, signal or timeout.
type lifecycle struct {
	scratch string // parent of every temporary directory

	mu       sync.Mutex
	children []*child
	dirs     []string
}

func newLifecycle(scratch string) (*lifecycle, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	return &lifecycle{scratch: scratch}, nil
}

// tempDir creates a directory that close removes.
func (l *lifecycle) tempDir(pattern string) (string, error) {
	dir, err := os.MkdirTemp(l.scratch, pattern)
	if err != nil {
		return "", err
	}
	l.mu.Lock()
	l.dirs = append(l.dirs, dir)
	l.mu.Unlock()
	return dir, nil
}

// child is one started process. It leads its own process group, so a
// signal to -pgid reaches anything it forked, and it gets SIGKILL from
// the kernel if the benchmark dies without running close.
type child struct {
	cmd  *exec.Cmd
	pgid int
	done chan struct{} // closed once the process is reaped
	err  error         // Wait's result, valid after done
}

// start runs cmd in a new process group and feeds each line of its
// standard error to onLine (from one goroutine, in order).
func (l *lifecycle) start(cmd *exec.Cmd, onLine func(string)) (*child, error) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, pgid: cmd.Process.Pid, done: make(chan struct{})}
	l.mu.Lock()
	l.children = append(l.children, c)
	l.mu.Unlock()
	go func() {
		defer close(c.done)
		sc := bufio.NewScanner(pipe)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			onLine(sc.Text())
		}
		_, _ = io.Copy(io.Discard, pipe) // drain past an over-long line
		c.err = cmd.Wait()
	}()
	return c, nil
}

// stop asks the process group to terminate, waits up to grace for the
// leader to exit, then kills the group and waits for the reap.
func (c *child) stop(grace time.Duration) {
	select {
	case <-c.done:
		return
	default:
	}
	_ = syscall.Kill(-c.pgid, syscall.SIGTERM) // ESRCH: already gone
	select {
	case <-c.done:
	case <-time.After(grace):
		_ = syscall.Kill(-c.pgid, syscall.SIGKILL)
		<-c.done
	}
}

// alive reports whether any process of the child's group is still
// running. Zombies do not count: a group member orphaned by the leader's
// exit is reaped by init, not by the benchmark, and may linger unreaped
// after it has died.
func (c *child) alive() bool {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return syscall.Kill(-c.pgid, 0) == nil
	}
	pgid := strconv.Itoa(c.pgid)
	for _, e := range ents {
		f, err := statFields("/proc/" + e.Name() + "/stat")
		if err != nil {
			continue // not a process, or gone meanwhile
		}
		// f[0] is the state (field 3), f[2] the process group (field 5).
		if len(f) > 2 && f[2] == pgid && f[0] != "Z" && f[0] != "X" {
			return true
		}
	}
	return false
}

// settle waits up to a second for the child's group to empty: members
// killed with the leader may take a moment to exit.
func (c *child) settle() bool {
	for i := 0; i < 100 && c.alive(); i++ {
		time.Sleep(10 * time.Millisecond)
	}
	return !c.alive()
}

// wait waits for the child to exit on its own, stopping it if ctx ends
// first.
func (c *child) wait(ctx context.Context, grace time.Duration) error {
	select {
	case <-c.done:
		return c.err
	case <-ctx.Done():
		c.stop(grace)
		return ctx.Err()
	}
}

// drainGrace bounds how long a stopped child may take to exit after
// SIGTERM. tvgserve runs with -drain below it.
const drainGrace = 8 * time.Second

// close stops every child, removes every temporary directory and fails if
// any process the run started is still alive afterwards.
func (l *lifecycle) close() error {
	l.mu.Lock()
	children, dirs := l.children, l.dirs
	l.children, l.dirs = nil, nil
	l.mu.Unlock()
	var errs []error
	for _, c := range children {
		c.stop(drainGrace)
		if !c.settle() {
			_ = syscall.Kill(-c.pgid, syscall.SIGKILL)
			errs = append(errs, fmt.Errorf("process group %d (%s) still alive after its leader was reaped", c.pgid, c.cmd.Path))
		}
	}
	for _, d := range dirs {
		if err := os.RemoveAll(d); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
