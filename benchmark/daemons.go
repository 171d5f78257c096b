package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pdagent/internal/transport"
)

// paths locates everything the benchmark touches on disk. All of it is
// inside the checkout: binaries and the Go build cache under
// .bench_build/, per-run daemon state under .bench_build/tmp/, and
// reports under benchmark/out/.
type paths struct {
	root   string // repository checkout
	binDir string
	tmpDir string
	outDir string
}

// findRoot walks up from the working directory to the checkout root
// (the directory holding cmd/gateway and the benchmark itself).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isDir(filepath.Join(dir, "cmd", "gateway")) && isDir(filepath.Join(dir, "benchmark")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside a pdagent checkout (no cmd/gateway above the working directory)")
		}
		dir = parent
	}
}

func isDir(p string) bool {
	st, err := os.Stat(p)
	return err == nil && st.IsDir()
}

func newPaths() (*paths, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	p := &paths{
		root:   root,
		binDir: filepath.Join(root, ".bench_build", "bin"),
		tmpDir: filepath.Join(root, ".bench_build", "tmp"),
		outDir: filepath.Join(root, "benchmark", "out"),
	}
	for _, d := range []string{p.binDir, p.tmpDir, p.outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// buildDaemons compiles the real cmd/gateway and cmd/masd. The go tool
// skips the link when the binaries are already up to date, so repeated
// runs in one checkout pay for the build once.
func (p *paths) buildDaemons(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", p.binDir+string(os.PathSeparator), "./cmd/gateway", "./cmd/masd")
	cmd.Dir = p.root
	if os.Getenv("GOCACHE") == "" {
		cmd.Env = append(os.Environ(), "GOCACHE="+filepath.Join(p.root, ".bench_build", "gocache"))
	}
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("building daemons: %v\n%s", err, out)
	}
	return nil
}

// proc is one daemon child process.
type proc struct {
	name    string
	logPath string
	cmd     *exec.Cmd
	done    chan struct{} // closed once the process has been reaped
}

// startProc launches a daemon with its output kept in logPath. The
// child is started from a goroutine pinned to its OS thread for the
// child's whole life: Pdeathsig fires when the forking *thread* exits,
// and it is what guarantees the daemons die even if the benchmark is
// SIGKILLed.
func startProc(name, bin, logPath string, args ...string) (*proc, error) {
	p := &proc{name: name, logPath: logPath, done: make(chan struct{})}
	started := make(chan error, 1)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		logf, err := os.Create(logPath)
		if err != nil {
			started <- err
			return
		}
		defer logf.Close()
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = logf, logf
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			started <- err
			return
		}
		p.cmd = cmd
		started <- nil
		_ = cmd.Wait() // exit status is irrelevant: we only ever kill daemons
		close(p.done)
	}()
	if err := <-started; err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	return p, nil
}

func (p *proc) alive() bool {
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

// kill stops the process and waits until it has been reaped.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // already-exited is fine
	<-p.done
}

// freeAddrs asks the kernel for n unused loopback ports. All n
// listeners are held open until the last one is bound — closing each
// before asking for the next lets the kernel hand the same port out
// twice — and closed before the daemons bind them; nothing else on this
// host races for ephemeral ports during a benchmark run.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// cluster is the system under test: one gateway and two bank hosts,
// either as real daemon processes (the measured configuration) or
// assembled in-process (the traced pass and the tests).
type cluster struct {
	gateway string
	banks   []string
	procs   []*proc // gateway first; empty in-process
	dir     string  // state directory, removed on stop
	inproc  *inprocCluster
}

// startDaemons launches gateway + 2 masd with the daemons' production
// defaults (-store wal -fsync group, 2048-bit key, no tenants, no
// cluster) plus journal and mailbox on, and returns once all three
// answer their ping.
func startDaemons(ctx context.Context, p *paths) (_ *cluster, err error) {
	dir, err := os.MkdirTemp(p.tmpDir, "run-")
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir}
	defer func() {
		if err != nil {
			c.keepLogs(p)
			c.stop()
		}
	}()
	addrs, err := freeAddrs(3)
	if err != nil {
		return nil, err
	}
	c.gateway, c.banks = addrs[0], addrs[1:]

	gw, err := startProc("gateway", filepath.Join(p.binDir, "gateway"), filepath.Join(dir, "gateway.log"),
		"-listen", c.gateway, "-addr", c.gateway,
		"-journal", filepath.Join(dir, "gw-journal"),
		"-mailbox-dir", filepath.Join(dir, "gw-mailbox"))
	if err != nil {
		return nil, err
	}
	c.procs = append(c.procs, gw)
	for i, flavour := range []string{"aglets", "voyager"} {
		name := fmt.Sprintf("masd-%s", flavour)
		m, err := startProc(name, filepath.Join(p.binDir, "masd"), filepath.Join(dir, name+".log"),
			"-listen", c.banks[i], "-addr", c.banks[i],
			"-services", "bank", "-flavour", flavour,
			"-journal", filepath.Join(dir, name+"-journal"),
			"-retry-interval", masRetryInterval.String())
		if err != nil {
			return nil, err
		}
		c.procs = append(c.procs, m)
	}
	if err := c.waitReady(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// scrapeClient is the benchmark's own control-plane client (readiness
// pings, /metrics scrapes). It is separate from the device connections
// so control traffic never occupies a generator connection.
var scrapeClient = transport.NewPooledHTTPClient(4)

func (c *cluster) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(20 * time.Second)
	pending := map[string]string{c.gateway: "/pdagent/ping"}
	for _, b := range c.banks {
		pending[b] = "/atp/ping"
	}
	for len(pending) > 0 {
		if err := c.checkAlive(); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemons not ready after 20s (still waiting for %d)", len(pending))
		}
		for addr, path := range pending {
			rctx, cancel := context.WithTimeout(ctx, time.Second)
			resp, err := scrapeClient.RoundTrip(rctx, addr, &transport.Request{Path: path})
			cancel()
			if err == nil && resp.IsOK() {
				delete(pending, addr)
			}
		}
		if len(pending) > 0 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// checkAlive reports the first daemon that has exited.
func (c *cluster) checkAlive() error {
	for _, p := range c.procs {
		if !p.alive() {
			return fmt.Errorf("daemon %s died (log: %s)", p.name, p.logPath)
		}
	}
	return nil
}

// halt kills every daemon (or stops the in-process components) and
// waits for each, but leaves the state directory in place.
func (c *cluster) halt() {
	for _, p := range c.procs {
		p.kill()
	}
	c.procs = nil
	if c.inproc != nil {
		c.inproc.stop()
		c.inproc = nil
	}
}

// stop halts the cluster and removes its state directory. Safe to call
// more than once.
func (c *cluster) stop() {
	c.halt()
	if c.dir != "" {
		_ = os.RemoveAll(c.dir) // best effort: leftovers live under .bench_build/tmp only
		c.dir = ""
	}
}

// keepLogs copies the daemons' output under benchmark/out/ — called
// only when a run fails, so a passing run leaves nothing behind.
func (c *cluster) keepLogs(p *paths) {
	for _, pr := range c.procs {
		data, err := os.ReadFile(pr.logPath)
		if err != nil || len(data) == 0 {
			continue
		}
		dst := filepath.Join(p.outDir, fmt.Sprintf("failed-%d-%s.log", os.Getpid(), pr.name))
		if err := os.WriteFile(dst, data, 0o644); err == nil {
			fmt.Fprintf(os.Stderr, "benchmark: kept %s output in %s\n", pr.name, dst)
		}
	}
}

// --- /metrics scrapes ------------------------------------------------------

// scrape fetches one member's /metrics as name -> value. Labelled and
// quantile series keep their braces in the name.
func scrape(ctx context.Context, addr string) (map[string]float64, error) {
	rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	resp, err := scrapeClient.RoundTrip(rctx, addr, &transport.Request{Path: "/metrics"})
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", addr, err)
	}
	if !resp.IsOK() {
		return nil, fmt.Errorf("scraping %s: %w", addr, resp.Err())
	}
	return parseMetrics(resp.Body), nil
}

func parseMetrics(body []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// Series the layer table is computed from. A run aborts when a member
// stops exporting one of them: a silently missing series would read as
// a zero and look like an improvement.
var (
	masSeries = []string{
		"pdagent_transfer_us_sum", "pdagent_transfer_us_count",
		"pdagent_transfer_out_total", "pdagent_transfer_in_total",
		"pdagent_transfer_parked_total", "pdagent_residents",
		"pdagent_wal_fsyncs", "pdagent_wal_grouped_ops", "pdagent_wal_max_fsync_us",
	}
	gatewaySeries = append([]string{
		"pdagent_dispatch_us_sum", "pdagent_dispatch_us_count",
		"pdagent_dispatch_total", "pdagent_dispatch_errors_total",
		"pdagent_mailbox_pending",
		"pdagent_mailbox_wal_fsyncs", "pdagent_mailbox_wal_grouped_ops", "pdagent_mailbox_wal_max_fsync_us",
	}, masSeries...)
)

// snapshot is one instant's view of the whole cluster.
type snapshot struct {
	metrics  []map[string]float64 // per member: gateway, bank 0, bank 1
	cpuTicks []float64            // per member, user+sys clock ticks (0 in-process)
}

func (c *cluster) members() []string { return append([]string{c.gateway}, c.banks...) }

func (c *cluster) snapshot(ctx context.Context) (*snapshot, error) {
	s := &snapshot{}
	for i, addr := range c.members() {
		m, err := scrape(ctx, addr)
		if err != nil {
			return nil, err
		}
		want := masSeries
		if i == 0 {
			want = gatewaySeries
		}
		for _, name := range want {
			if _, ok := m[name]; !ok {
				return nil, fmt.Errorf("%s/metrics lacks series %q the layer table needs", addr, name)
			}
		}
		s.metrics = append(s.metrics, m)
	}
	var err error
	if s.cpuTicks, err = c.cpuTicks(); err != nil {
		return nil, err
	}
	return s, nil
}

// cpuTicks reads every member's CPU time so far (zeros in-process,
// where the members have no process of their own).
func (c *cluster) cpuTicks() ([]float64, error) {
	ticks := make([]float64, len(c.members()))
	for i, p := range c.procs {
		var err error
		if ticks[i], err = procCPUTicks(p.cmd.Process.Pid); err != nil {
			return nil, err
		}
	}
	return ticks, nil
}

// sum adds one series over the given members.
func (s *snapshot) sum(name string, members ...int) float64 {
	total := 0.0
	for _, i := range members {
		total += s.metrics[i][name]
	}
	return total
}

func (s *snapshot) max(name string, members ...int) float64 {
	m := 0.0
	for _, i := range members {
		if v := s.metrics[i][name]; v > m {
			m = v
		}
	}
	return m
}

var allMembers = []int{0, 1, 2}

// --- /proc -------------------------------------------------------------------

// clockTick is USER_HZ: the unit of utime/stime in /proc/<pid>/stat.
// Linux fixes it at 100 for every architecture Go supports.
const clockTick = 100

// procCPUTicks returns user+system CPU time of a process (all threads,
// including exited ones) in clock ticks.
func procCPUTicks(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces;
	// everything after the last ')' is space-separated from field 3 on.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	fields := strings.Fields(string(data[i+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short read", pid)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64) // field 14
	stime, err2 := strconv.ParseFloat(fields[12], 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return utime + stime, nil
}

// procPeakRSSMB returns VmHWM, the process's peak resident set.
func procPeakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: bad VmHWM %q", pid, rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}
