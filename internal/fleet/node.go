package fleet

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// Node is one fleet member: either a process the coordinator launched
// (cmd set) or a running instance it attached to by address (cmd nil).
type Node struct {
	Role     string
	ID       string
	Addr     string
	Endpoint string // backend only: order | error
	Attach   bool
	Flags    []string

	cmd     *exec.Cmd
	logFile *os.File
	logPath string
	waitCh  chan error

	// ExitErr is the collected exit status after stop: nil for a clean
	// exit (or an attached/never-launched node), non-nil otherwise.
	ExitErr error
}

// Key is the node's session identity: role/id, the cross-node sample key.
func (n *Node) Key() string { return n.Role + "/" + n.ID }

// roleBinaries maps roles to the commands that implement them.
var roleBinaries = map[string]string{
	roleBackend: "aonback",
	roleGateway: "aongate",
}

// binary resolves the node's executable: an absolute/relative path under
// binDir when set, else a bare name for PATH lookup.
func (n *Node) binary(binDir string) string {
	name := roleBinaries[n.Role]
	if binDir == "" {
		return name
	}
	p := filepath.Join(binDir, name)
	if !filepath.IsAbs(p) && !strings.ContainsRune(p, os.PathSeparator) {
		// Join cleans "./aonback" to "aonback"; keep the ./ so exec runs
		// the binDir copy instead of falling back to a PATH lookup.
		p = "." + string(os.PathSeparator) + p
	}
	return p
}

// launch starts the node's process with stdout+stderr captured to
// <outDir>/<role>-<id>.log. args are the coordinator-built flags;
// n.Flags append after them so the config can override.
func (n *Node) launch(binDir, outDir string, args []string) error {
	if n.Attach {
		return nil
	}
	logPath := filepath.Join(outDir, sanitize(n.Role+"-"+n.ID)+".log")
	lf, err := os.Create(logPath)
	if err != nil {
		return fmt.Errorf("fleet: %s: log: %w", n.Key(), err)
	}
	cmd := exec.Command(n.binary(binDir), append(append([]string{}, args...), n.Flags...)...)
	cmd.Stdout = lf
	cmd.Stderr = lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		os.Remove(logPath)
		return fmt.Errorf("fleet: %s: start %s: %w", n.Key(), n.binary(binDir), err)
	}
	n.cmd = cmd
	n.logFile = lf
	n.logPath = logPath
	n.waitCh = make(chan error, 1)
	go func() { n.waitCh <- cmd.Wait() }()
	return nil
}

// exited reports whether a launched process has already terminated (its
// exit error is then recorded). Attached nodes never report exited.
func (n *Node) exited() bool {
	if n.cmd == nil {
		return false
	}
	select {
	case err := <-n.waitCh:
		n.ExitErr = err
		n.waitCh <- err // keep it readable for stop
		return true
	default:
		return false
	}
}

// stop terminates a launched node: SIGTERM (the graceful path both
// commands handle — aongate drains, aonback prints its final report),
// escalating to SIGKILL after grace, and collects the exit
// status into ExitErr. Attached nodes are left running — the coordinator
// only ever joins them. Idempotent.
func (n *Node) stop(grace time.Duration) {
	if n.cmd == nil {
		return
	}
	defer func() {
		if n.logFile != nil {
			n.logFile.Close()
			n.logFile = nil
		}
		n.cmd = nil
	}()
	// Already exited (crash or natural completion): just collect.
	select {
	case err := <-n.waitCh:
		n.ExitErr = err
		return
	default:
	}
	n.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-n.waitCh:
		n.ExitErr = err
	case <-time.After(grace):
		n.cmd.Process.Kill()
		err := <-n.waitCh
		if err == nil {
			err = fmt.Errorf("killed after %v grace", grace)
		}
		n.ExitErr = fmt.Errorf("fleet: %s: did not stop within %v: %w", n.Key(), grace, err)
	}
}

// logTail returns the last maxBytes of the node's captured log — the
// diagnostic attached to readiness and exit failures.
func (n *Node) logTail(maxBytes int64) string {
	if n.logPath == "" {
		return ""
	}
	b, err := os.ReadFile(n.logPath)
	if err != nil {
		return ""
	}
	if int64(len(b)) > maxBytes {
		b = b[int64(len(b))-maxBytes:]
	}
	return strings.TrimSpace(string(b))
}

// sanitize keeps node-derived file names path-safe.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}
