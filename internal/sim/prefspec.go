package sim

import (
	"fmt"

	"stms/internal/core"
	"stms/internal/prefetch"
	"stms/internal/prefetch/ghb"
	"stms/internal/prefetch/markov"
	"stms/internal/prefetch/singletable"
	"stms/internal/prefetch/tse"
)

// Kind selects a temporal prefetcher variant.
type Kind int

// Prefetcher variants.
const (
	None   Kind = iota // stride-only baseline
	Ideal              // idealized TMS: magic on-chip meta-data (§5.2)
	STMS               // the paper's contribution
	TSE                // Temporal Streaming Engine comparator
	EBCP               // epoch-based correlation comparator
	ULMT               // user-level memory thread comparator
	Markov             // pair-wise comparator
)

// String names the variant as figures label it.
func (k Kind) String() string {
	switch k {
	case None:
		return "baseline"
	case Ideal:
		return "ideal"
	case STMS:
		return "stms"
	case TSE:
		return "tse"
	case EBCP:
		return "ebcp"
	case ULMT:
		return "ulmt"
	case Markov:
		return "markov"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// PrefSpec configures the temporal prefetcher for a run. Zero values take
// variant defaults scaled by Config.Scale.
type PrefSpec struct {
	Kind Kind

	// MaxDepth caps blocks followed per lookup (Fig. 6 right); 0 =
	// unlimited.
	MaxDepth int

	// Ideal-variant meta-data caps (Figs. 1 left, 5 left).
	HistoryEntries uint64 // per-core history entries; 0 = unbounded
	IndexEntries   uint64 // global index entries with LRU; 0 = unbounded

	// STMS overrides. When STMSCfg is non-nil it is used verbatim;
	// otherwise the default configuration is scaled by Config.Scale and
	// SampleProb (if non-zero) overrides the sampling probability.
	STMSCfg    *core.Config
	SampleProb float64

	// Engine overrides (0 = defaults).
	Engine *prefetch.EngineConfig
}

// built carries a constructed prefetcher and the typed handles experiments
// need for variant-specific statistics.
type built struct {
	temporal prefetch.Temporal
	engine   *prefetch.Engine // nil for Markov/EBCP/ULMT/None
	stms     *core.Meta
	ideal    *ghb.Meta
	tse      *tse.Meta
	table    *singletable.Prefetcher
	markov   *markov.Prefetcher
}

// hint returns the temporal backend's host prefetch hint for the index
// line a miss on blk will touch, nil when it has none (DESIGN.md §6).
func (b built) hint() func(blk uint64) {
	switch {
	case b.stms != nil:
		return b.stms.Hint
	case b.ideal != nil:
		return b.ideal.Hint
	}
	return nil
}

// buildPrefetcher constructs the variant over env.
func buildPrefetcher(env prefetch.Env, cfg Config, ps PrefSpec) built {
	ecfg := prefetch.DefaultEngineConfig(cfg.Cores)
	if ps.Engine != nil {
		ecfg = *ps.Engine
		ecfg.Cores = cfg.Cores
	}
	ecfg.MaxDepth = ps.MaxDepth

	switch ps.Kind {
	case None:
		return built{temporal: &prefetch.Nop{}}

	case Ideal:
		gcfg := ghb.DefaultConfig(cfg.Cores)
		if ps.HistoryEntries != 0 {
			gcfg.HistoryEntries = ps.HistoryEntries
		}
		gcfg.IndexEntries = ps.IndexEntries
		m := ghb.New(env, gcfg)
		e := prefetch.NewEngine(env, m, ecfg)
		return built{temporal: e, engine: e, ideal: m}

	case STMS:
		var scfg core.Config
		if ps.STMSCfg != nil {
			scfg = *ps.STMSCfg
		} else {
			scfg = core.DefaultConfig(cfg.Cores).Scaled(cfg.Scale)
			if ps.SampleProb > 0 {
				scfg.SampleProb = ps.SampleProb
			}
			scfg.Seed = cfg.Seed
		}
		scfg.Cores = cfg.Cores
		m := core.NewMeta(env, scfg)
		e := prefetch.NewEngine(env, m, ecfg)
		return built{temporal: e, engine: e, stms: m}

	case TSE:
		tcfg := tse.DefaultConfig(cfg.Cores)
		if ps.HistoryEntries != 0 {
			tcfg.HistoryEntries = ps.HistoryEntries
		}
		m := tse.NewMeta(env, tcfg)
		e := prefetch.NewEngine(env, m, ecfg)
		return built{temporal: e, engine: e, tse: m}

	case EBCP:
		p := singletable.New(env, scaledTable(singletable.EBCP(cfg.Cores), cfg.Scale))
		return built{temporal: p, table: p}

	case ULMT:
		p := singletable.New(env, scaledTable(singletable.ULMT(cfg.Cores), cfg.Scale))
		return built{temporal: p, table: p}

	case Markov:
		mcfg := markov.DefaultConfig(cfg.Cores)
		mcfg.Entries = int(float64(mcfg.Entries) * cfg.Scale)
		if mcfg.Entries < 1024 {
			mcfg.Entries = 1024
		}
		p := markov.New(env, mcfg)
		return built{temporal: p, markov: p}
	}
	panic(fmt.Sprintf("sim: unknown prefetcher kind %d", ps.Kind))
}

func scaledTable(c singletable.Config, scale float64) singletable.Config {
	if scale > 0 && scale != 1 {
		c.Entries = int(float64(c.Entries) * scale)
		if c.Entries < 1024 {
			c.Entries = 1024
		}
	}
	return c
}
