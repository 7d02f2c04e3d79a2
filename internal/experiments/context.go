// Package experiments contains one driver per table and figure in the
// paper (T1, T2, F1-F15), the §4.2 coverage arithmetic (S1), and the §5
// ablations (A1-A5). Each driver renders its artifact from a shared
// SuiteResult so the expensive sweep runs once per process; the
// ablations replay the suite's recordings on a (row × input) task grid.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"btr/internal/sched"
	"btr/internal/sim"
	"btr/internal/trace"
	"btr/internal/workload"
)

// Context carries the configuration and lazily-computed suite results
// shared by every experiment.
type Context struct {
	Cfg   sim.Config
	Specs []workload.Spec

	once  sync.Once
	suite *sim.SuiteResult
	// group is the scheduler group the suite ran as (SuiteGroup); the
	// ablation replay grids join it, so canceling it reaches them too.
	group *sched.Group
}

// Shared bundles the immutable-state substrate experiment contexts
// draw on: the recorded-trace cache and its pass-1 profile sibling.
// Recordings are keyed by (workload name, spec fingerprint, scale,
// chunk size), so any two contexts over the same bundle with matching
// config — an ablation rerun, a confidence study, a second brserve
// request — replay the first run's recordings instead of running any
// generator again, and the profile cache makes that second context skip
// the profiling replay too: zero pass-1 work of any kind. Both caches
// are safe for concurrent use, so one bundle can back any number of
// concurrent sessions.
type Shared struct {
	// Traces is the recorded-trace cache (sim.Config.Cache).
	Traces *trace.Cache
	// Profiles is the classified pass-1 cache (sim.Config.Profiles).
	Profiles *sim.ProfileCache
}

// NewShared builds an explicit bundle: a trace cache bounded to
// cacheBytes of resident columns (<= 0 means trace.DefaultCacheBytes)
// spilling BTR2 files to spillDir ("" = memory only), plus a
// default-budget profile cache. Servers construct one of these and
// hand it to every session; CLIs usually go through SharedFor.
func NewShared(cacheBytes int64, spillDir string) *Shared {
	if cacheBytes <= 0 {
		cacheBytes = trace.DefaultCacheBytes
	}
	return &Shared{
		Traces:   trace.NewCache(cacheBytes, spillDir, workload.RegistryFingerprint()),
		Profiles: sim.NewProfileCache(),
	}
}

// sharedByDir memoises one bundle per spill directory. A single
// package singleton used to serve every caller regardless of cache
// directory, which silently pointed two contexts with different
// -cachedir at one memory cache (and only one of the directories);
// keying the registry by directory gives same-dir callers one shared
// in-memory instance and different-dir callers genuinely distinct
// caches.
var (
	sharedMu    sync.Mutex
	sharedByDir = make(map[string]*Shared)
)

// SharedFor returns the process-wide bundle for spillDir (building it
// with default budgets on first use). The empty string names the
// memory-only default bundle every cache-less context shares.
func SharedFor(spillDir string) *Shared {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	sh := sharedByDir[spillDir]
	if sh == nil {
		sh = NewShared(0, spillDir)
		sharedByDir[spillDir] = sh
	}
	return sh
}

// NewContext builds a context over the full Table 1 suite, defaulting
// to the process-wide shared bundle (SharedFor("")).
func NewContext(cfg sim.Config) *Context {
	return NewContextShared(cfg, nil)
}

// NewContextShared builds a context over the full Table 1 suite using
// the given bundle for whichever of cfg.Cache / cfg.Profiles the config
// does not bring itself. A nil bundle selects the process default —
// except under a memory budget (cfg.MemBudget > 0), where a cache-less
// config gets a private trace cache bounded to that budget instead: the
// shared cache's default 1 GiB of resident columns would defeat the
// bound the caller just asked for, and the profile cache (whose
// attribution columns are O(trace) too) is tightened to the same
// number. An explicit bundle is used as given — its owner (a server
// applying per-request budgets over one substrate) has already chosen
// the sizes.
func NewContextShared(cfg sim.Config, sh *Shared) *Context {
	if sh == nil {
		if cfg.MemBudget > 0 && cfg.Cache == nil {
			cfg.Cache = trace.NewCache(cfg.MemBudget, "", workload.RegistryFingerprint())
			if cfg.Profiles == nil {
				cfg.Profiles = sim.NewProfileCacheBytes(cfg.MemBudget)
			}
		}
		sh = SharedFor("")
	}
	if cfg.Cache == nil {
		cfg.Cache = sh.Traces
	}
	if cfg.Profiles == nil {
		cfg.Profiles = sh.Profiles
	}
	return &Context{Cfg: cfg, Specs: workload.Suite()}
}

// Suite returns the shared suite result, computing it on first use.
func (c *Context) Suite() *sim.SuiteResult {
	c.once.Do(func() {
		c.suite = sim.RunSuite(c.Specs, c.Cfg)
	})
	return c.suite
}

// SuiteGroup is Suite with the first computation running as the given
// scheduler group, so the caller can cancel the suite mid-run
// (sched.Group.Cancel): brserve hands each request's group here and
// cancels it when the client disconnects or a deadline fires. The
// ablations' replay grids later run in the same group, so canceling it
// stops them too. Inputs dropped by the cancellation carry
// sim.ErrCanceled in SuiteResult.Dropped. If the suite was already
// computed (by Suite or an earlier SuiteGroup), the cached result is
// returned and g is untouched.
func (c *Context) SuiteGroup(g *sched.Group) *sim.SuiteResult {
	c.once.Do(func() {
		c.group = g
		c.suite = sim.RunSuiteGroup(g, c.Specs, c.Cfg)
	})
	return c.suite
}

// replayGrid runs an ablation's (row × input) replay tasks over the
// suite's inputs (sim.ReplayGrid): on the suite's group when it came
// from SuiteGroup, else on the configured or a private scheduler.
// Partials come back indexed [row][input].
func replayGrid[T any](c *Context, rows []string, task func(row int, in *sim.InputResult) T) ([][]T, error) {
	inputs := c.Suite().Inputs
	return sim.ReplayGrid(c.Cfg, c.group, inputs, rows, task)
}

// Experiment is one reproducible artifact.
type Experiment struct {
	// ID is the index key, e.g. "T2" or "F13".
	ID string
	// Paper describes the original artifact.
	Paper string
	// Run renders the reproduction to w.
	Run func(c *Context, w io.Writer) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment in registration (paper) order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Find returns the experiment with the given ID (case-sensitive).
func Find(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}
