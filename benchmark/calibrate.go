package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Host-speed calibration. On a shared virtual machine the same binary's
// replay time drifts by 20% and more between runs a minute apart, far
// beyond any regression bound worth having. Each run therefore also times
// two fixed kernels that share no code with the repository — one for the
// CPUs and memory, one for the storage under the checkout — and reports
// every timing scaled by the kernel times measured right after it to the
// reference machine's: a timing reads as the milliseconds the reference
// machine would have measured. Scaling each sample by its own neighbour
// follows the host's speed within a run too. A change to the program under
// test cannot move the kernels, so it moves the scaled timings exactly as
// much as the raw ones.
//
// The reference machine: 2 vCPU Intel Xeon at 2.1 GHz, 8 GB, ext4 on a
// virtual disk, Go 1.24.
const (
	// cpuRefMs is calibrate's median time on the reference machine.
	cpuRefMs = 14.5
	// diskRefMs is calibrateDisk's median time on the reference machine.
	diskRefMs = 5.0
)

// calSink keeps the kernels' results live so the compiler keeps the work.
var calSink atomic.Uint64

// calibrate runs the CPU kernel — allocation, pointer chasing over a few MB
// and sorting, on every CPU at once, the mix a replay spends its time on —
// from a collected heap, and returns its wall time.
func calibrate() time.Duration {
	runtime.GC()
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			calSink.Add(calibrationWork(seed))
		}(uint64(g) + 1)
	}
	wg.Wait()
	return time.Since(t0)
}

func calibrationWork(seed uint64) uint64 {
	type node struct {
		next *node
		key  uint64
		pad  [4]uint64
	}
	const n = 1 << 16
	nodes := make([]*node, n)
	x := seed * 0x9E3779B97F4A7C15
	for i := range nodes {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		nodes[i] = &node{key: x}
	}
	for _, nd := range nodes {
		nd.next = nodes[nd.key%n]
	}
	var s uint64
	p := nodes[0]
	for i := 0; i < 1<<20; i++ {
		s += p.key
		p = p.next
	}
	keys := make([]uint64, n)
	for i, nd := range nodes {
		keys[i] = nd.key
	}
	slices.Sort(keys)
	return s + keys[n/2]
}

// calibrateDisk runs the storage kernel in dir: 16 crash-atomic small-file
// replacements (write, fsync, rename, fsync the directory), the pattern
// the ingest server repeats for every frame. It returns their wall time.
func calibrateDisk(dir string) (time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	buf := make([]byte, 128)
	t0 := time.Now()
	for i := 0; i < 16; i++ {
		tmp := filepath.Join(dir, "calibration.tmp")
		f, err := os.Create(tmp)
		if err != nil {
			return 0, err
		}
		_, err = f.Write(buf)
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp, filepath.Join(dir, "calibration"))
		}
		if err != nil {
			return 0, err
		}
		d, err := os.Open(dir)
		if err != nil {
			return 0, err
		}
		err = d.Sync()
		d.Close()
		if err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// hostScale collects one run's kernel times.
type hostScale struct {
	cpuMs, diskMs []float64
}

// cpu times the CPU kernel and returns the factor that scales a CPU-bound
// timing measured just before it to the reference machine.
func (h *hostScale) cpu() float64 {
	k := ms(calibrate())
	h.cpuMs = append(h.cpuMs, k)
	return cpuRefMs / k
}

// mixed times both kernels and returns the factor for a timing that is
// part CPU work and part fsync waits, such as an ingest push: the
// geometric mean of the two kernels' factors.
func (h *hostScale) mixed(dir string) (float64, error) {
	c := h.cpu()
	d, err := calibrateDisk(dir)
	if err != nil {
		return 0, err
	}
	h.diskMs = append(h.diskMs, ms(d))
	return math.Sqrt(c * diskRefMs / ms(d)), nil
}
