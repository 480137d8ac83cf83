package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one running seedex-serve process.
type child struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time
	logDone chan struct{} // closed when the stderr reader reaches EOF

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

// startChild launches bin with args and waits until it reports its
// listen address. The child dies with the benchmark (Pdeathsig), and on
// any error here it is killed and waited for before returning.
func startChild(ctx context.Context, bin string, args []string) (*child, error) {
	c := &child{cmd: exec.Command(bin, args...), logDone: make(chan struct{})}
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	c.started = time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting seedex-serve: %w", err)
	}
	addrc := make(chan string, 1)
	go c.readLog(stderr, addrc)
	timer := time.NewTimer(60 * time.Second)
	defer timer.Stop()
	select {
	case c.addr = <-addrc:
		if c.addr != "" {
			return c, nil
		}
		err = errors.New("seedex-serve exited before listening")
	case <-timer.C:
		err = errors.New("seedex-serve did not report a listen address within 60s")
	case <-ctx.Done():
		err = ctx.Err()
	}
	c.stop()
	return nil, fmt.Errorf("%w; stderr tail:\n%s", err, c.logTail())
}

// readLog drains the child's stderr (a full pipe would block its
// logger), hands the listen address over once and keeps a short tail.
func (c *child) readLog(r io.Reader, addrc chan<- string) {
	defer close(c.logDone)
	sent := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		c.mu.Lock()
		c.tail = append(c.tail, line)
		if len(c.tail) > 20 {
			c.tail = c.tail[1:]
		}
		c.mu.Unlock()
		if !sent {
			if _, rest, ok := strings.Cut(line, `"listening on `); ok {
				addr, _, _ := strings.Cut(rest, `"`)
				addrc <- addr
				sent = true
			}
		}
	}
	if !sent {
		addrc <- ""
	}
}

func (c *child) logTail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.tail, "\n")
}

// stop ends the child: SIGTERM for a graceful drain, SIGKILL if it has
// not exited within five seconds. It returns once the process is reaped.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
	select {
	case <-c.logDone:
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.logDone
	}
	_ = c.cmd.Wait() // the exit status of a signalled server carries no information
}

// cpuTime reads the child's user+system CPU from /proc/<pid>/stat.
func (c *child) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	const clkTck = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// hostTicks reads the machine's steal and total CPU ticks from
// /proc/stat. Steal is time the hypervisor ran someone else on our CPUs;
// a run with much of it measured the host, not the program.
func hostTicks() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("unexpected /proc/stat cpu line")
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// peakRSSMB reads the child's VmHWM.
func (c *child) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape is one reading of the server's two /metrics surfaces.
type scrape struct {
	json metricsDoc
	prom map[string]float64 // series ("name" or `name{labels}`) -> value
}

// metricsDoc is the subset of the /metrics JSON document the benchmark
// reads.
type metricsDoc struct {
	Failed    int64   `json:"requests_failed"`
	Completed int64   `json:"jobs_completed"`
	Batches   int64   `json:"batches"`
	Checks    *checks `json:"checks"`
	Config    struct {
		MaxBatch int     `json:"max_batch"`
		FlushUs  float64 `json:"flush_us"`
	} `json:"config"`
}

type checks struct {
	Total    int64            `json:"total"`
	Passed   int64            `json:"passed"`
	Reruns   int64            `json:"reruns"`
	Outcomes map[string]int64 `json:"outcomes"`
}

func get(ctx context.Context, cl *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return b, nil
}

func (c *child) scrape(ctx context.Context) (scrape, error) {
	cl := &http.Client{Timeout: 30 * time.Second}
	defer cl.CloseIdleConnections()
	var s scrape
	b, err := get(ctx, cl, "http://"+c.addr+"/metrics")
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s.json); err != nil {
		return s, fmt.Errorf("decoding /metrics: %w", err)
	}
	b, err = get(ctx, cl, "http://"+c.addr+"/metrics?format=prometheus")
	if err != nil {
		return s, err
	}
	s.prom = parseProm(b)
	return s, nil
}

// parseProm reads Prometheus text exposition into series -> value.
func parseProm(b []byte) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}
