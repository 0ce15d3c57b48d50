package core

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"xcbc/internal/cluster"
	"xcbc/internal/rocks"
	"xcbc/internal/rpm"
	"xcbc/internal/sim"
)

func cachedRecipes() int {
	recipes.Lock()
	defer recipes.Unlock()
	return len(recipes.m)
}

// distinctRecipe returns the i-th of many distinct (scheduler, roll set)
// recipes: the scheduler cycles and the roll set is the bit pattern of i/3
// over OptionalRollNames.
func distinctRecipe(i int) (string, []string) {
	var rolls []string
	for b, name := range OptionalRollNames {
		if (i/len(Schedulers))&(1<<b) != 0 {
			rolls = append(rolls, name)
		}
	}
	return Schedulers[i%len(Schedulers)], rolls
}

func permutations(s []string) [][]string {
	if len(s) <= 1 {
		return [][]string{slices.Clone(s)}
	}
	var out [][]string
	for i := range s {
		rest := append(slices.Clone(s[:i]), s[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]string{s[i]}, p...))
		}
	}
	return out
}

func TestRecipeCacheCanonicalKey(t *testing.T) {
	set := []string{"kvm", "ganglia", "bio"}
	first, err := BuildDistribution("slurm", set...)
	if err != nil {
		t.Fatal(err)
	}
	requests := append(permutations(set), []string{"bio", "kvm", "ganglia", "kvm"})
	for _, rolls := range requests {
		d, err := BuildDistribution("slurm", rolls...)
		if err != nil {
			t.Fatalf("%v: %v", rolls, err)
		}
		if d != first {
			t.Fatalf("%v: got a different distribution than %v", rolls, set)
		}
		for _, app := range []rocks.Appliance{rocks.ApplianceFrontend, rocks.ApplianceCompute} {
			if !slices.Equal(d.PackagesFor(app), first.PackagesFor(app)) {
				t.Fatalf("%v: %s packages differ", rolls, app)
			}
		}
	}
}

func TestRecipeCacheBounded(t *testing.T) {
	for i := 0; i < 3*maxRecipes; i++ {
		sched, rolls := distinctRecipe(i)
		if _, err := BuildDistribution(sched, rolls...); err != nil {
			t.Fatalf("%s %v: %v", sched, rolls, err)
		}
		if n := cachedRecipes(); n > maxRecipes {
			t.Fatalf("after %d distinct recipes the cache holds %d, bound is %d", i+1, n, maxRecipes)
		}
	}
}

func TestRecipeRebuiltAfterResetIsEqual(t *testing.T) {
	opts := Options{Scheduler: "torque", OptionalRolls: []string{"hpc", "ganglia", "web-server"}}
	first, err := recipeFor(opts.Scheduler, opts.OptionalRolls)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := BuildXCBC(sim.NewEngine(), cluster.NewLittleFe(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// maxRecipes further distinct recipes overflow the cache at least once.
	for i := 0; i < maxRecipes; i++ {
		sched, rolls := distinctRecipe(7*i + 1000)
		if _, err := BuildDistribution(sched, rolls...); err != nil {
			t.Fatal(err)
		}
	}
	d2, err := BuildXCBC(sim.NewEngine(), cluster.NewLittleFe(), opts)
	if err != nil {
		t.Fatal(err)
	}
	again, err := recipeFor(opts.Scheduler, opts.OptionalRolls)
	if err != nil {
		t.Fatal(err)
	}
	if again == first {
		t.Fatal("recipe survived the reset; the test no longer exercises a rebuild")
	}
	if again.dist.Name != first.dist.Name || !slices.Equal(again.dist.RollNames(), first.dist.RollNames()) {
		t.Fatalf("rebuilt distribution %s %v, first %s %v",
			again.dist.Name, again.dist.RollNames(), first.dist.Name, first.dist.RollNames())
	}
	for _, app := range []rocks.Appliance{rocks.ApplianceFrontend, rocks.ApplianceCompute} {
		if !slices.Equal(again.dist.PackagesFor(app), first.dist.PackagesFor(app)) {
			t.Fatalf("rebuilt %s packages differ", app)
		}
		p1, err1 := first.graph.PostInstall(string(app))
		p2, err2 := again.graph.PostInstall(string(app))
		if err1 != nil || err2 != nil || !reflect.DeepEqual(p1, p2) {
			t.Fatalf("rebuilt %s post-install state differs: %+v vs %+v (%v, %v)", app, p2, p1, err2, err1)
		}
	}
	avail := d1.Modules.Avail()
	if len(avail) == 0 || !slices.Equal(d2.Modules.Avail(), avail) {
		t.Fatalf("rebuilt module tree %v, first %v", d2.Modules.Avail(), avail)
	}
	for _, key := range avail {
		key = strings.TrimSuffix(key, " (default)")
		m1, err1 := d1.Modules.Resolve(key)
		m2, err2 := d2.Modules.Resolve(key)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(m1, m2) {
			t.Fatalf("module %s differs after rebuild: %+v vs %+v (%v, %v)", key, m2, m1, err2, err1)
		}
	}
}

func TestRecipeConcurrentBuildsShareOneInstance(t *testing.T) {
	// Start from an empty cache so every goroutine races to build.
	recipes.Lock()
	recipes.m = nil
	recipes.Unlock()
	const callers = 16
	got := make([]*rocks.Distribution, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rolls := []string{"zfs-linux", "perl", "area51"}
			if i%2 == 1 {
				slices.Reverse(rolls)
			}
			d, err := BuildDistribution("sge", rolls...)
			if err != nil {
				t.Error(err)
			}
			got[i] = d
		}()
	}
	close(start)
	wg.Wait()
	for i, d := range got {
		if d == nil || d != got[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p", i, d, got[0])
		}
	}
}

// An invalid frontend install set still fails inside InstallFrontend with
// the provisioning error, and the recipe's module tree is never generated.
func TestRecipeInvalidInstallSetFailsAtFrontendInstall(t *testing.T) {
	need, err := rpm.ParseCapability("libmissing.so")
	if err != nil {
		t.Fatal(err)
	}
	broken := rocks.NewRoll("base", RocksVersion, "", false)
	broken.AddPackages(rocks.ApplianceFrontend,
		rpm.NewPackage("rocks-db", "6.1.1-1", rpm.ArchX86_64).Requires(need).Build())
	dist, err := rocks.BuildDistribution("broken", broken)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recipe{dist: dist, graph: rocks.DefaultGraph()}
	const key = "torque\x00area51"
	recipes.Lock()
	if recipes.m == nil {
		recipes.m = make(map[string]*recipe)
	}
	recipes.m[key] = rec
	recipes.Unlock()
	defer func() {
		recipes.Lock()
		delete(recipes.m, key)
		recipes.Unlock()
	}()

	_, err = BuildXCBC(sim.NewEngine(), cluster.NewLittleFe(), Options{Scheduler: "torque", OptionalRolls: []string{"area51"}})
	if err == nil || !strings.Contains(err.Error(), "core: XCBC install failed: provision: frontend package install: ") {
		t.Fatalf("err = %v, want the wrapped frontend package install error", err)
	}
	if rec.modules != nil {
		t.Fatal("module tree generated for a recipe whose frontend install failed")
	}
}
