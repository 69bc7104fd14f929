package core

import (
	"mimicnet/internal/cluster"
)

// Compose builds the large-scale approximate simulation: one real
// (observable) cluster plus N−1 Mimic clusters and a proportional number
// of Core switches (paper §7.1), as the Engine built from ComposedRoles
// (see engine.go for the runtime). cfg.Topo.Clusters sets N; all other
// parameters should match the small-scale run that trained the models
// ("Aside from the number of clusters, all other parameters are kept
// constant", §7.1).
func Compose(cfg cluster.Config, models *MimicModels) (*Engine, error) {
	n := cfg.Topo.Clusters
	if n < 0 {
		n = 0 // invalid; NewEngine reports the real error
	}
	return NewEngine(cfg, ComposedRoles(n), models)
}
