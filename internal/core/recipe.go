package core

import (
	"slices"
	"strings"
	"sync"

	"xcbc/internal/modules"
	"xcbc/internal/rocks"
	"xcbc/internal/rpm"
)

// maxRecipes bounds the recipe cache. A fully warmed recipe holds about
// 155 KB, so the cache stays near 5 MB however many distinct roll sets
// callers ask for.
const maxRecipes = 32

// recipe is one XCBC build recipe (a scheduler plus a set of Table 1
// optional rolls) and everything derived from it that every deployment of
// the recipe shares: the distribution with its memoized install sets, the
// scheduler's kickstart graph with its memoized post-install states, and
// the frontend module tree.
type recipe struct {
	dist  *rocks.Distribution
	graph *rocks.Graph

	modulesOnce sync.Once
	modules     *modules.System
}

// recipes caches recipes by canonical key. When a new recipe arrives and
// the cache is full, the cache is cleared and refilled from scratch;
// deployments already holding a recipe keep it.
var recipes struct {
	sync.Mutex
	m map[string]*recipe
}

// recipeFor returns the shared recipe for a scheduler and optional-roll
// set. Rolls are sorted and de-duplicated first, so every ordering of one
// roll set shares an entry. Failed builds are not cached.
func recipeFor(scheduler string, optionalRolls []string) (*recipe, error) {
	rolls := slices.Clone(optionalRolls)
	slices.Sort(rolls)
	rolls = slices.Compact(rolls)
	key := scheduler + "\x00" + strings.Join(rolls, "\x00")
	recipes.Lock()
	defer recipes.Unlock()
	if r, ok := recipes.m[key]; ok {
		return r, nil
	}
	r, err := buildRecipe(scheduler, rolls)
	if err != nil {
		return nil, err
	}
	if recipes.m == nil || len(recipes.m) >= maxRecipes {
		recipes.m = make(map[string]*recipe, maxRecipes)
	}
	recipes.m[key] = r
	return r, nil
}

func buildRecipe(scheduler string, optionalRolls []string) (*recipe, error) {
	byName := CatalogByName(Catalog())
	xsedeRoll, err := BuildXSEDERoll(byName, scheduler)
	if err != nil {
		return nil, err
	}
	rolls := []*rocks.Roll{BuildBaseRoll(byName), xsedeRoll}
	for _, name := range optionalRolls {
		r, err := BuildOptionalRoll(byName, name)
		if err != nil {
			return nil, err
		}
		rolls = append(rolls, r)
	}
	dist, err := rocks.BuildDistribution("xcbc-"+XCBCVersion+"-"+scheduler, rolls...)
	if err != nil {
		return nil, err
	}
	graph := rocks.DefaultGraph()
	if err := rocks.AttachXSEDEFragments(graph, scheduler); err != nil {
		return nil, err
	}
	return &recipe{dist: dist, graph: graph}, nil
}

// frontendModules returns a copy-on-write alias of the recipe's frontend
// module tree. The tree is generated once, from the first installed
// frontend's packages: every frontend of a recipe adopts the same install
// set, so later callers would generate the identical tree.
func (r *recipe) frontendModules(pkgs []*rpm.Package) *modules.System {
	r.modulesOnce.Do(func() {
		r.modules = modules.GenerateFromPackages(pkgs, CategoryCompilers, CategorySciApps)
	})
	return r.modules.Share()
}
