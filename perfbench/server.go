package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServer compiles cmd/tvgserve once per run into a temporary
// directory. The binary is executed directly, never through `go run`,
// whose compiled child would outlive a killed `go` process.
func buildServer(ctx context.Context, life *lifecycle, root string) (string, error) {
	dir, err := life.tempDir("bin-")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "tvgserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/tvgserve")
	cmd.Dir = root
	var out lineTail
	c, err := life.start(cmd, out.add)
	if err != nil {
		return "", err
	}
	if err := c.wait(ctx, drainGrace); err != nil {
		return "", fmt.Errorf("go build ./cmd/tvgserve: %v\n%s", err, out.String())
	}
	return bin, nil
}

// lineTail keeps the last lines a child wrote, for error messages.
type lineTail struct {
	mu    sync.Mutex
	lines []string
}

func (t *lineTail) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.lines) == 20 {
		t.lines = t.lines[1:]
	}
	t.lines = append(t.lines, line)
}

func (t *lineTail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// server is a running tvgserve child.
type server struct {
	*child
	base string
}

var listenLine = regexp.MustCompile(`listening on (\S+)`)

// startServer execs tvgserve on an ephemeral loopback port and returns
// once /healthz answers 200, with the time from exec to that answer.
// Counts are read from GET /statusz before and after the window only.
func startServer(ctx context.Context, life *lifecycle, bin string, args []string) (*server, time.Duration, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-statusz", "-drain", "5s"}, args...)
	addr := make(chan string, 1)
	tail := &lineTail{}
	cmd := exec.Command(bin, args...)
	t0 := time.Now()
	c, err := life.start(cmd, func(line string) {
		tail.add(line)
		if m := listenLine.FindStringSubmatch(line); m != nil {
			select {
			case addr <- m[1]:
			default:
			}
		}
	})
	if err != nil {
		return nil, 0, err
	}
	s := &server{child: c}
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-c.done:
		return nil, 0, fmt.Errorf("tvgserve exited before listening: %v\n%s", c.err, tail)
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	case <-time.After(30 * time.Second):
		return nil, 0, fmt.Errorf("tvgserve did not log its address within 30s\n%s", tail)
	}
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	for {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		select {
		case <-c.done:
			return nil, 0, fmt.Errorf("tvgserve exited before ready: %v\n%s", c.err, tail)
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Since(t0) > 60*time.Second {
			return nil, 0, fmt.Errorf("tvgserve not ready within 60s\n%s", tail)
		}
	}
}

// cpuTotal is the reaped server's user+system CPU time.
func (s *server) cpuTotal() time.Duration {
	ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return rusageCPU(ru)
}

func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// statFields returns the fields of a /proc/PID/stat file that follow the
// command name, so f[0] is field 3 (the state).
func statFields(path string) ([]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return nil, fmt.Errorf("malformed %s", path)
	}
	return strings.Fields(string(b[i+1:])), nil
}

// procCPU reads a live process's user+system CPU time from
// /proc/PID/stat (fields 14 and 15, in USER_HZ = 100 ticks per second).
func procCPU(pid int) (time.Duration, error) {
	path := fmt.Sprintf("/proc/%d/stat", pid)
	f, err := statFields(path)
	if err != nil {
		return 0, err
	}
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed %s", path)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed %s", path)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSS reads a live process's VmHWM in bytes.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU is the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageCPU(&ru)
}

// varz is the scalar part of a /statusz document (histograms dropped).
type varz map[string]float64

func (s *server) statusz(ctx context.Context) (varz, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/statusz", nil)
	if err != nil {
		return nil, err
	}
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode /statusz: %v", err)
	}
	out := varz{}
	for k, raw := range doc {
		var v float64
		if json.Unmarshal(raw, &v) == nil {
			out[k] = v
		}
	}
	return out, nil
}

// delta is after[k] - before[k] summed over every key starting with
// prefix (so a labelled family sums across its labels).
func delta(before, after varz, prefix string) float64 {
	var d float64
	for k, v := range after {
		if strings.HasPrefix(k, prefix) {
			d += v - before[k]
		}
	}
	return d
}

// copyDir copies the regular files of a flat directory (a tvgserve data
// directory) into dst.
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			return fmt.Errorf("copy %s: %s is not a regular file", src, e.Name())
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
