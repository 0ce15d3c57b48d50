// Package provision simulates Rocks-style bare-metal provisioning: the
// frontend installs from the distribution media, compute nodes PXE-boot and
// kickstart from the frontend, and post-install graph actions configure
// services. Installation consumes simulated time (per-stage and per-package
// costs) so the from-scratch XCBC path and the incremental XNIT path can be
// compared quantitatively.
//
// The package enforces the constraint the paper calls out: "Rocks does not
// support diskless installation", which is why the modified LittleFe adds
// mSATA drives and why the diskless Limulus can only be converted via XNIT.
package provision

import (
	"errors"
	"fmt"
	"time"

	"xcbc/internal/cluster"
	"xcbc/internal/rocks"
	"xcbc/internal/rpm"
	"xcbc/internal/sim"
)

// ErrDiskless is returned when Rocks provisioning targets a node without a
// local disk.
var ErrDiskless = errors.New("provision: Rocks does not support diskless installation")

// Stage durations model a CentOS 6 kickstart. Per-package time dominates for
// the ~150-package XCBC set; stage constants cover partitioning, image copy,
// and post-install configuration.
const (
	StagePXEBoot     = 30 * time.Second
	StagePartition   = 45 * time.Second
	StageBaseImage   = 4 * time.Minute
	StagePostInstall = 90 * time.Second
	PerPackage       = 2 * time.Second
	PerAction        = 1 * time.Second
)

// Installer drives provisioning of one cluster from one frontend database.
type Installer struct {
	Cluster *cluster.Cluster
	DB      *rocks.FrontendDB
	Graph   *rocks.Graph
	OSName  string

	// Log accumulates a human-readable record of what happened; the training
	// examples surface it as curriculum output.
	Log []string

	// Hook, when non-nil, runs at the start of every node install attempt
	// (attempt numbering starts at 1). Returning an error fails the attempt
	// before the node is touched; wave installs treat such failures as
	// transient and retry with backoff. It is the seam for fault injection
	// in tests and chaos runs.
	Hook func(node string, attempt int) error

	// Quarantined lists compute nodes that exhausted their retries during a
	// wave build and were set aside instead of aborting the build.
	Quarantined []string
}

// NewInstaller binds a cluster, frontend DB, and kickstart graph.
func NewInstaller(c *cluster.Cluster, db *rocks.FrontendDB, g *rocks.Graph, osName string) *Installer {
	return &Installer{
		Cluster: c, DB: db, Graph: g, OSName: osName,
		// A full build logs ~2 lines per compute plus a few frontend lines;
		// sizing the log up front avoids per-line slice doubling.
		Log: make([]string, 0, 2*len(c.Computes)+8),
	}
}

func (ins *Installer) logf(format string, args ...any) {
	ins.Log = append(ins.Log, fmt.Sprintf(format, args...))
}

// Result summarizes one node's install.
type Result struct {
	Node     string
	Packages int
	Duration time.Duration
	Actions  int
}

// InstallFrontend provisions the frontend from the distribution media,
// running on the simulation engine. The frontend must have a disk (Rocks
// installs a full OS onto it).
func (ins *Installer) InstallFrontend(eng *sim.Engine) (*Result, error) {
	fe := ins.Cluster.Frontend
	if !fe.HasDisk() {
		return nil, fmt.Errorf("%w: frontend %s has no disk", ErrDiskless, fe.Name)
	}
	fe.SetPower(cluster.PowerOn)
	start := eng.Now()
	// The distribution validates each appliance's package set once and every
	// node adopts the shared result; re-running an identical install
	// transaction per node dominated heap profiles at fleet scale.
	set, err := ins.DB.Distribution().InstallSet(rocks.ApplianceFrontend)
	if err != nil {
		return nil, fmt.Errorf("provision: frontend package install: %w", err)
	}
	pkgs := set.Packages()
	fe.WipePackages()
	if err := fe.Packages().AdoptSet(set); err != nil {
		return nil, fmt.Errorf("provision: frontend package install: %w", err)
	}
	post, err := ins.Graph.PostInstall(string(rocks.ApplianceFrontend))
	if err != nil {
		return nil, err
	}
	cost := StagePartition + StageBaseImage + StagePostInstall +
		time.Duration(len(pkgs))*PerPackage + time.Duration(len(post.Actions))*PerAction
	eng.RunUntil(eng.Now() + sim.Time(cost))
	fe.AdoptSystemState(post.Services, post.Attrs)
	fe.SetOS(ins.OSName)
	ins.logf("frontend %s installed: %d packages, %d actions, %v", fe.Name, len(pkgs), len(post.Actions), cost)
	return &Result{Node: fe.Name, Packages: len(pkgs), Duration: (eng.Now() - start).Duration(), Actions: len(post.Actions)}, nil
}

// DiscoverComputes registers every compute node in the frontend database,
// the insert-ethers phase of a Rocks build.
func (ins *Installer) DiscoverComputes() error {
	for i, n := range ins.Cluster.Computes {
		mac := fmt.Sprintf("52:54:00:%02x:%02x:%02x", 0, i/256, i%256)
		if _, err := ins.DB.AddHost(n.Name, rocks.ApplianceCompute, 0, i, mac); err != nil {
			return err
		}
		ins.logf("insert-ethers: discovered %s (%s)", n.Name, mac)
	}
	return nil
}

// pendingInstall is a compute kickstart that has run its package
// transaction but not yet been committed: post-install state, the OS
// marker, and the frontend-database installed flag all wait for commit.
// Splitting the two phases lets a wave overlap many kickstarts in simulated
// time and commit them together once the wave's clock advance is done.
type pendingInstall struct {
	node *cluster.Node
	name string
	pkgs int
	post *rocks.PostInstall
	cost time.Duration
}

// kickstart validates and starts one compute install, leaving it pending.
// The frontend must already be installed; the node must have a disk; the
// node must be registered.
func (ins *Installer) kickstart(name string) (*pendingInstall, error) {
	if ins.Cluster.Frontend.OS() == "" {
		return nil, fmt.Errorf("provision: frontend not installed; cannot kickstart %s", name)
	}
	node, ok := ins.Cluster.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("provision: no such node %s", name)
	}
	if _, registered := ins.DB.Host(name); !registered {
		return nil, fmt.Errorf("provision: node %s not in frontend database (run insert-ethers)", name)
	}
	if !node.HasDisk() {
		return nil, fmt.Errorf("%w: node %s", ErrDiskless, name)
	}
	node.SetPower(cluster.PowerOn)
	set, err := ins.DB.Distribution().InstallSet(rocks.ApplianceCompute)
	if err != nil {
		return nil, fmt.Errorf("provision: %s package install: %w", name, err)
	}
	pkgs := set.Packages()
	node.WipePackages()
	if err := node.Packages().AdoptSet(set); err != nil {
		return nil, fmt.Errorf("provision: %s package install: %w", name, err)
	}
	post, err := ins.Graph.PostInstall(string(rocks.ApplianceCompute))
	if err != nil {
		return nil, err
	}
	cost := StagePXEBoot + StagePartition + StageBaseImage + StagePostInstall +
		time.Duration(len(pkgs))*PerPackage + time.Duration(len(post.Actions))*PerAction
	return &pendingInstall{node: node, name: name, pkgs: len(pkgs), post: post, cost: cost}, nil
}

// commit finalizes a pending install. duration is the simulated time the
// node's install consumed (for a wave member this includes failed-attempt
// and backoff time, and the wave as a whole advanced the clock by its
// slowest member).
func (ins *Installer) commit(p *pendingInstall, duration time.Duration) (*Result, error) {
	// Every node of an appliance adopts the graph's one shared
	// service/attribute state copy-on-write instead of re-parsing actions.
	p.node.AdoptSystemState(p.post.Services, p.post.Attrs)
	p.node.SetOS(ins.OSName)
	if err := ins.DB.MarkInstalled(p.name, true); err != nil {
		return nil, err
	}
	ins.logf("compute %s kickstarted: %d packages in %v", p.name, p.pkgs, p.cost)
	return &Result{Node: p.name, Packages: p.pkgs, Duration: duration, Actions: len(p.post.Actions)}, nil
}

// InstallCompute kickstarts one compute node sequentially: the simulation
// clock advances by the full install cost before the next node can start.
// Wave installs (InstallWave) overlap these costs instead.
func (ins *Installer) InstallCompute(eng *sim.Engine, name string) (*Result, error) {
	if ins.Hook != nil {
		if err := ins.Hook(name, 1); err != nil {
			return nil, fmt.Errorf("provision: %s install attempt failed: %w", name, err)
		}
	}
	p, err := ins.kickstart(name)
	if err != nil {
		return nil, err
	}
	eng.RunUntil(eng.Now() + sim.Time(p.cost))
	return ins.commit(p, p.cost)
}

// InstallAll provisions the frontend and then every compute node, returning
// per-node results. This is the complete "all at once, from scratch" XCBC
// build.
func (ins *Installer) InstallAll(eng *sim.Engine) ([]*Result, error) {
	var results []*Result
	r, err := ins.InstallFrontend(eng)
	if err != nil {
		return nil, err
	}
	results = append(results, r)
	if err := ins.DiscoverComputes(); err != nil {
		return nil, err
	}
	for _, n := range ins.Cluster.Computes {
		r, err := ins.InstallCompute(eng, n.Name)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	return results, nil
}

// Reinstall wipes and re-kickstarts a compute node — the Rocks answer to
// configuration drift ("rocks set host boot action=install; reboot").
func (ins *Installer) Reinstall(eng *sim.Engine, name string) (*Result, error) {
	node, ok := ins.Cluster.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("provision: no such node %s", name)
	}
	node.WipePackages()
	if err := ins.DB.MarkInstalled(name, false); err != nil {
		return nil, err
	}
	ins.logf("reinstall requested for %s", name)
	return ins.InstallCompute(eng, name)
}

// VendorProvision models what the Limulus ships with: vendor tooling that
// *can* handle diskless nodes (NFS-root), installing a base OS and a minimal
// package set without Rocks. It is intentionally not the XCBC stack — the
// XNIT workflow upgrades it in place afterwards.
func VendorProvision(eng *sim.Engine, c *cluster.Cluster, osName string, basePkgs []*rpm.Package) error {
	for _, n := range c.Nodes() {
		n.SetPower(cluster.PowerOn)
		n.WipePackages()
		var tx rpm.Transaction
		for _, p := range basePkgs {
			tx.Install(p)
		}
		if err := tx.Run(n.Packages()); err != nil {
			return fmt.Errorf("provision: vendor install on %s: %w", n.Name, err)
		}
		n.SetOS(osName)
		n.StartService("sshd")
	}
	eng.RunUntil(eng.Now() + sim.Time(StageBaseImage+time.Duration(len(basePkgs)*len(c.Nodes()))*PerPackage/4))
	return nil
}
