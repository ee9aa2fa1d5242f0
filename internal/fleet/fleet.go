// Package fleet is a small process supervisor for the sharded audit
// plane: it spawns a set of member processes (one collector per shard
// plus the gateway), health-checks them over HTTP, restarts crashed
// members from their durable state under a restart budget, and
// propagates shutdown as SIGTERM so every member gets its graceful
// drain-and-seal.
//
// The supervisor trusts the members' own crash-recovery story instead of
// inventing one: a collector that dies mid-epoch is restarted on the same
// epoch-log directory, where recoverIncarnation seals the stranded tail
// Degraded and marks the next epoch Fresh — the audit then grades the
// loss Unauditable, never an accusation. The supervisor's only promises
// are liveness (restart within budget) and orderly death (SIGTERM first,
// SIGKILL after the grace period).
package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"karousos.dev/karousos/internal/fault"
)

// MemberSpec describes one supervised process.
type MemberSpec struct {
	// Name labels the member in status and log output and addresses it in
	// Kill. Must be unique.
	Name string
	// Argv is the full command line; Argv[0] is the binary.
	Argv []string
	// Dir is the working directory ("" = inherit).
	Dir string
	// ReadyURL, when set, is polled (GET, expect 200) before Start
	// returns and after every restart. "" means ready-on-start.
	ReadyURL string
	// RestartBudget is how many restarts the supervisor will pay for this
	// member; past it a crashing member stays down (visible in Status).
	// 0 means DefaultRestartBudget; negative means never restart.
	RestartBudget int
}

// DefaultRestartBudget is the per-member restart allowance when the spec
// leaves it zero.
const DefaultRestartBudget = 3

// MemberStatus is one member's observable supervision state.
type MemberStatus struct {
	Name     string `json:"name"`
	PID      int    `json:"pid,omitempty"`
	Running  bool   `json:"running"`
	Ready    bool   `json:"ready"`
	Restarts int    `json:"restarts"`
	// Exhausted means the member died past its restart budget.
	Exhausted bool   `json:"exhausted,omitempty"`
	LastExit  string `json:"lastExit,omitempty"`
}

// Config configures a Supervisor.
type Config struct {
	Members []MemberSpec
	// Output receives every member's combined stdout+stderr, each line
	// prefixed "[name] ", and the supervisor's own events (spawn, crash,
	// restart, stop) as "[fleet] " lines. Writes are serialized by the
	// supervisor, so a plain bytes.Buffer is safe. nil discards.
	Output io.Writer
	// RestartBackoff is the delay before the first restart, doubling per
	// consecutive restart up to a minute (default 100ms).
	RestartBackoff time.Duration
}

// readyTimeout bounds one member's readiness wait.
const readyTimeout = 15 * time.Second

// member is one supervised process's live state.
type member struct {
	spec   MemberSpec
	budget int

	mu       sync.Mutex
	cmd      *exec.Cmd
	running  bool
	ready    bool
	restarts int
	lastExit string
	stopping bool
	dead     chan struct{} // closed when the monitor gives up for good
}

// Supervisor runs a fleet of member processes.
type Supervisor struct {
	cfg     Config
	out     *syncWriter
	members []*member
	byName  map[string]*member
	wg      sync.WaitGroup
	// ctx is cancelled by Stop, so a member mid-back-off is abandoned at
	// once instead of after its whole delay.
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	started bool
	stopped bool
}

// New validates the member list.
func New(cfg Config) (*Supervisor, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("fleet: no members")
	}
	if cfg.RestartBackoff <= 0 {
		cfg.RestartBackoff = 100 * time.Millisecond
	}
	s := &Supervisor{cfg: cfg, byName: make(map[string]*member, len(cfg.Members))}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	if cfg.Output != nil {
		// One lock serializes every writer into Output: member stdout/stderr
		// copiers and the supervisor's own log lines all interleave here.
		s.out = &syncWriter{w: cfg.Output}
	}
	for _, spec := range cfg.Members {
		if spec.Name == "" || len(spec.Argv) == 0 {
			return nil, fmt.Errorf("fleet: member needs a name and an argv")
		}
		if _, dup := s.byName[spec.Name]; dup {
			return nil, fmt.Errorf("fleet: duplicate member %q", spec.Name)
		}
		budget := spec.RestartBudget
		if budget == 0 {
			budget = DefaultRestartBudget
		}
		m := &member{spec: spec, budget: budget, dead: make(chan struct{})}
		s.members = append(s.members, m)
		s.byName[spec.Name] = m
	}
	return s, nil
}

// logf writes one supervisor event to Output as a "[fleet] " line.
func (s *Supervisor) logf(format string, args ...any) {
	if s.out != nil {
		fmt.Fprintf(s.out, "[fleet] "+format+"\n", args...)
	}
}

// Start spawns every member in order and waits for each one's readiness.
// A member that fails to become ready fails Start; already-started
// members keep running (call Stop to clean up).
func (s *Supervisor) Start(ctx context.Context) error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return fmt.Errorf("fleet: already started")
	}
	s.started = true
	s.mu.Unlock()
	for _, m := range s.members {
		if err := s.spawn(m); err != nil {
			return err
		}
		if err := s.waitReady(ctx, m); err != nil {
			return err
		}
	}
	return nil
}

// spawn launches one member and its monitor goroutine.
func (s *Supervisor) spawn(m *member) error {
	cmd := exec.Command(m.spec.Argv[0], m.spec.Argv[1:]...)
	cmd.Dir = m.spec.Dir
	if s.out != nil {
		pw := &prefixWriter{w: s.out, prefix: "[" + m.spec.Name + "] "}
		cmd.Stdout = pw
		cmd.Stderr = pw
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("fleet: starting %s: %w", m.spec.Name, err)
	}
	s.logf("fleet: %s started (pid %d)", m.spec.Name, cmd.Process.Pid)
	m.mu.Lock()
	m.cmd = cmd
	m.running = true
	m.ready = m.spec.ReadyURL == ""
	m.mu.Unlock()
	s.wg.Add(1)
	go s.monitor(m, cmd)
	return nil
}

// monitor waits for one incarnation to exit and decides restart vs give
// up. Restarting reuses the identical spec: the member's durable state on
// disk is its recovery story.
func (s *Supervisor) monitor(m *member, cmd *exec.Cmd) {
	defer s.wg.Done()
	err := cmd.Wait()
	exit := "exit 0"
	if err != nil {
		exit = err.Error()
	}
	m.mu.Lock()
	m.running = false
	m.ready = false
	m.lastExit = exit
	stopping := m.stopping
	restarts := m.restarts
	m.mu.Unlock()
	if stopping {
		s.logf("fleet: %s stopped (%s)", m.spec.Name, exit)
		close(m.dead)
		return
	}
	if m.budget < 0 || restarts >= m.budget {
		s.logf("fleet: %s died (%s) with no restart budget left (%d used)", m.spec.Name, exit, restarts)
		close(m.dead)
		return
	}
	// Crash: pay one restart, with a doubling backoff so a hot-crashing
	// member cannot spin the supervisor.
	s.logf("fleet: %s died (%s); restart %d/%d", m.spec.Name, exit, restarts+1, m.budget)
	backoff := fault.Backoff{Base: s.cfg.RestartBackoff, Max: time.Minute}
	if backoff.Wait(s.ctx, restarts) != nil {
		close(m.dead)
		return
	}
	m.mu.Lock()
	if m.stopping {
		m.mu.Unlock()
		close(m.dead)
		return
	}
	m.restarts++
	m.mu.Unlock()
	if err := s.spawn(m); err != nil {
		s.logf("fleet: restarting %s: %v", m.spec.Name, err)
		m.mu.Lock()
		m.lastExit = err.Error()
		m.mu.Unlock()
		close(m.dead)
		return
	}
	// Readiness after a restart is polled in the background: the fleet's
	// front door reports the hole via its own AND-/readyz meanwhile.
	go s.waitReady(context.Background(), m) // readiness after restart is advisory; Status and /readyz carry the signal
}

// waitReady polls the member's ReadyURL until 200, timeout, or ctx done.
func (s *Supervisor) waitReady(ctx context.Context, m *member) error {
	if m.spec.ReadyURL == "" {
		return nil
	}
	deadline := time.Now().Add(readyTimeout)
	client := &http.Client{Timeout: time.Second}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := client.Get(m.spec.ReadyURL)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				m.mu.Lock()
				m.ready = true
				m.mu.Unlock()
				s.logf("fleet: %s ready", m.spec.Name)
				return nil
			}
		}
		m.mu.Lock()
		running := m.running
		m.mu.Unlock()
		if !running {
			// Crashed while warming up; the monitor owns what happens next.
			return fmt.Errorf("fleet: %s exited before becoming ready", m.spec.Name)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: %s not ready after %v", m.spec.Name, readyTimeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// Kill sends SIGKILL to one member — the chaos hook: an abrupt death the
// supervisor is expected to notice and repair.
func (s *Supervisor) Kill(name string) error {
	m, ok := s.byName[name]
	if !ok {
		return fmt.Errorf("fleet: no member %q", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.running || m.cmd == nil || m.cmd.Process == nil {
		return fmt.Errorf("fleet: %s is not running", name)
	}
	return m.cmd.Process.Kill()
}

// Signal sends sig to one member without touching supervision state.
func (s *Supervisor) Signal(name string, sig syscall.Signal) error {
	m, ok := s.byName[name]
	if !ok {
		return fmt.Errorf("fleet: no member %q", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.running || m.cmd == nil || m.cmd.Process == nil {
		return fmt.Errorf("fleet: %s is not running", name)
	}
	return m.cmd.Process.Signal(sig)
}

// Status reports every member, in spec order.
func (s *Supervisor) Status() []MemberStatus {
	out := make([]MemberStatus, 0, len(s.members))
	for _, m := range s.members {
		m.mu.Lock()
		st := MemberStatus{
			Name:     m.spec.Name,
			Running:  m.running,
			Ready:    m.ready,
			Restarts: m.restarts,
			LastExit: m.lastExit,
		}
		if m.running && m.cmd != nil && m.cmd.Process != nil {
			st.PID = m.cmd.Process.Pid
		}
		if !m.running && m.budget >= 0 && m.restarts >= m.budget && m.lastExit != "" {
			st.Exhausted = true
		}
		m.mu.Unlock()
		out = append(out, st)
	}
	return out
}

// Ready reports whether every member is running and ready.
func (s *Supervisor) Ready() bool {
	for _, st := range s.Status() {
		if !st.Running || !st.Ready {
			return false
		}
	}
	return true
}

// Stop shuts the fleet down: SIGTERM to every member in reverse spec
// order (the gateway before its collectors, so the front door stops
// routing into a draining shard), then SIGKILL to whatever outlives the
// grace period. Members are not restarted once Stop begins.
func (s *Supervisor) Stop(grace time.Duration) error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil
	}
	s.stopped = true
	s.mu.Unlock()
	s.cancel()
	for i := len(s.members) - 1; i >= 0; i-- {
		m := s.members[i]
		m.mu.Lock()
		m.stopping = true
		if m.running && m.cmd != nil && m.cmd.Process != nil {
			s.logf("fleet: stopping %s (SIGTERM)", m.spec.Name)
			m.cmd.Process.Signal(syscall.SIGTERM) // the grace-period SIGKILL below is the fallback for a failed signal
		} else {
			// Already down; nothing will close dead unless it was closed by
			// the monitor — check below.
			select {
			case <-m.dead:
			default:
				// Monitor is mid-restart-backoff; stopping=true makes it
				// close dead without respawning.
			}
		}
		m.mu.Unlock()
	}
	deadline := time.After(grace)
	var firstErr error
	for i := len(s.members) - 1; i >= 0; i-- {
		m := s.members[i]
		select {
		case <-m.dead:
		case <-deadline:
			m.mu.Lock()
			if m.running && m.cmd != nil && m.cmd.Process != nil {
				s.logf("fleet: %s outlived the grace period (SIGKILL)", m.spec.Name)
				m.cmd.Process.Kill() // the process is already past grace; Wait below reports its end state
				if firstErr == nil {
					firstErr = fmt.Errorf("fleet: %s needed SIGKILL", m.spec.Name)
				}
			}
			m.mu.Unlock()
			<-m.dead
		}
	}
	s.wg.Wait()
	return firstErr
}

// syncWriter serializes concurrent writers into one io.Writer.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// prefixWriter prefixes each written chunk's lines with the member name.
// Good enough for human-readable interleaved fleet output.
type prefixWriter struct {
	mu     sync.Mutex
	w      io.Writer
	prefix string
	tail   []byte
}

func (p *prefixWriter) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	data := append(p.tail, b...)
	p.tail = nil
	for {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			p.tail = append(p.tail, data...)
			break
		}
		line := data[:i+1]
		data = data[i+1:]
		if _, err := io.WriteString(p.w, p.prefix); err != nil {
			return len(b), nil // member log decoration is best-effort
		}
		if _, err := p.w.Write(line); err != nil {
			return len(b), nil // member log decoration is best-effort
		}
	}
	return len(b), nil
}
