package bench

import (
	"fmt"

	"github.com/ssrg-vt/rinval/internal/stamp"
	"github.com/ssrg-vt/rinval/internal/stamp/bayes"
	"github.com/ssrg-vt/rinval/internal/stamp/genome"
	"github.com/ssrg-vt/rinval/internal/stamp/intruder"
	"github.com/ssrg-vt/rinval/internal/stamp/kmeans"
	"github.com/ssrg-vt/rinval/internal/stamp/labyrinth"
	"github.com/ssrg-vt/rinval/internal/stamp/ssca2"
	"github.com/ssrg-vt/rinval/internal/stamp/vacation"
	"github.com/ssrg-vt/rinval/stm"
)

// Scale selects workload sizing for the live STAMP runs.
type Scale int

const (
	// ScaleSmall finishes in milliseconds — for tests and smoke runs.
	ScaleSmall Scale = iota
	// ScaleDefault is the laptop-scale instance used by the experiment CLI.
	ScaleDefault
	// ScaleLarge is a multi-second instance for soak runs.
	ScaleLarge
)

// STAMPApps lists the live STAMP ports in the paper's presentation order.
var STAMPApps = []string{"kmeans", "ssca2", "labyrinth", "intruder", "genome", "vacation", "bayes"}

// NewSTAMP constructs a fresh single-use workload for app at the given
// scale and seed.
func NewSTAMP(app string, scale Scale, seed uint64) (stamp.Workload, error) {
	small := scale == ScaleSmall
	large := scale == ScaleLarge
	switch app {
	case "kmeans":
		cfg := kmeans.DefaultConfig()
		if small {
			cfg.Points, cfg.Iterations = 240, 2
		} else if large {
			cfg.Points, cfg.Iterations = 8192, 6
		}
		cfg.Seed = seed
		return kmeans.New(cfg), nil
	case "ssca2":
		cfg := ssca2.DefaultConfig()
		if small {
			cfg.Vertices, cfg.Edges = 64, 512
		} else if large {
			cfg.Vertices, cfg.Edges = 4096, 65536
		}
		cfg.Seed = seed
		return ssca2.New(cfg), nil
	case "labyrinth":
		cfg := labyrinth.DefaultConfig()
		if small {
			cfg.Width, cfg.Height, cfg.Paths = 16, 16, 10
		} else if large {
			cfg.Width, cfg.Height, cfg.Paths, cfg.MaxLen = 64, 64, 128, 32
		}
		cfg.Seed = seed
		return labyrinth.New(cfg), nil
	case "intruder":
		cfg := intruder.DefaultConfig()
		if small {
			cfg.Flows = 30
		} else if large {
			cfg.Flows, cfg.Fragments = 1024, 8
		}
		cfg.Seed = seed
		return intruder.New(cfg), nil
	case "genome":
		cfg := genome.DefaultConfig()
		if small {
			cfg.GeneLength = 160
		} else if large {
			cfg.GeneLength, cfg.Copies = 4096, 4
		}
		cfg.Seed = seed
		return genome.New(cfg), nil
	case "vacation":
		cfg := vacation.DefaultConfig()
		if small {
			cfg.Tasks, cfg.Items = 160, 32
		} else if large {
			cfg.Tasks, cfg.Items, cfg.Customers = 8192, 1024, 512
		}
		cfg.Seed = seed
		return vacation.New(cfg), nil
	case "bayes":
		cfg := bayes.DefaultConfig()
		if small {
			cfg.Records, cfg.Proposals = 200, 48
		} else if large {
			cfg.Records, cfg.Proposals, cfg.Vars = 4096, 512, 20
		}
		cfg.Seed = seed
		return bayes.New(cfg), nil
	}
	return nil, fmt.Errorf("bench: unknown STAMP app %q", app)
}

// RunSTAMP executes one live STAMP run on a fresh System and returns the
// measured row. Execution time covers the worker phase, as in STAMP.
func RunSTAMP(algo stm.Algo, app string, threads int, scale Scale, seed uint64) (Row, error) {
	w, err := NewSTAMP(app, scale, seed)
	if err != nil {
		return Row{}, err
	}
	cfg := stm.Config{
		Algo:         algo,
		MaxThreads:   threads + 1,
		InvalServers: min(4, threads+1),
		Seed:         seed,
	}
	sys, err := stm.New(cfg)
	if err != nil {
		return Row{}, err
	}
	defer sys.Close()
	res, err := stamp.Run(sys, w, threads)
	if err != nil {
		return Row{}, err
	}
	row := Row{
		Algo:    algo.String(),
		Threads: threads,
		Elapsed: res.Elapsed,
		Commits: res.Stats.Commits,
		Aborts:  res.Stats.Aborts,
	}
	if res.Elapsed > 0 {
		row.KTxPerSec = float64(res.Stats.Commits) / res.Elapsed.Seconds() / 1e3
	}
	return row, nil
}
