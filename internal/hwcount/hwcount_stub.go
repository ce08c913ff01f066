//go:build !linux || !(amd64 || arm64)

package hwcount

// Group is the unsupported-platform stand-in; Open never produces one.
type Group struct{}

// Supported reports that this platform cannot open perf events at all.
func Supported() bool { return false }

// Open always fails where perf_event_open is unavailable; callers fall
// back to runtime-metrics-only observability.
func Open() (*Group, error) { return nil, ErrUnsupported }

// OpenCPU always fails where perf_event_open is unavailable.
func OpenCPU(int) (*Group, error) { return nil, ErrUnsupported }

// CPUs lists ids 0..runtime.NumCPU()-1 on platforms whose affinity set
// is not read.
func CPUs() []int { return sequentialCPUs() }

// Grouped reports false on unsupported platforms.
func (g *Group) Grouped() bool { return false }

// UserOnly reports false on unsupported platforms.
func (g *Group) UserOnly() bool { return false }

// Read never succeeds on unsupported platforms.
func (g *Group) Read() (Reading, error) { return Reading{}, ErrUnsupported }

// Close is a no-op on unsupported platforms.
func (g *Group) Close() error { return nil }
