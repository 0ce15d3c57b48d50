// Package modules implements an environment-modules subsystem: modulefiles
// describing environment mutations, a per-session environment, and the
// avail/load/unload/list commands users run on XSEDE clusters. The paper
// credits Montana State administrators with working out how to expose XCBC
// software through environment modules; GenerateFromPackages reproduces that
// integration by deriving modulefiles from an installed-package database.
package modules

import (
	"fmt"
	"sort"
	"strings"

	"xcbc/internal/rpm"
)

// Modulefile describes one loadable module: environment variable settings,
// PATH-style prepends, conflicts, and prerequisites.
type Modulefile struct {
	Name    string // e.g. "openmpi"
	Version string // e.g. "1.6.4"
	Default bool   // loaded when requested without a version
	Help    string

	PrependPath map[string][]string // var -> paths, e.g. PATH, LD_LIBRARY_PATH
	SetEnv      map[string]string
	Conflicts   []string // module names that cannot co-load
	Prereqs     []string // module names that must be loaded first
}

// Key returns name/version, the canonical module identifier.
func (m *Modulefile) Key() string { return m.Name + "/" + m.Version }

// System is a collection of modulefiles (the MODULEPATH contents).
type System struct {
	files map[string][]*Modulefile // name -> versions

	// shared marks files as an alias of another System's module tree (see
	// Share). The first Add detaches onto private copies.
	shared bool
}

// NewSystem returns an empty module system.
func NewSystem() *System {
	return &System{files: make(map[string][]*Modulefile)}
}

// Share returns a copy-on-write alias of s: it reads s's modules without
// copying them, and its first Add detaches onto a private map, so no alias
// writes into s or a sibling alias. s itself must not be modified once it
// has been shared.
func (s *System) Share() *System {
	return &System{files: s.files, shared: true}
}

// detach gives a System aliasing another's module tree its own map, so an
// Add cannot leak into the tree it was shared from. The per-name slices
// stay shared but capacity-capped: appends copy on write, and Add's
// replace path copies before writing.
func (s *System) detach() {
	if !s.shared {
		return
	}
	s.shared = false
	files := make(map[string][]*Modulefile, len(s.files))
	for name, ms := range s.files {
		files[name] = ms[:len(ms):len(ms)]
	}
	s.files = files
}

// Add registers a modulefile. Re-adding the same name/version replaces it.
func (s *System) Add(m *Modulefile) {
	s.detach()
	list := s.files[m.Name]
	for i, existing := range list {
		if existing.Version == m.Version {
			// Copy before writing: the backing array may still be shared
			// with the tree this System detached from.
			cp := append([]*Modulefile(nil), list...)
			cp[i] = m
			s.files[m.Name] = cp
			return
		}
	}
	s.files[m.Name] = append(list, m)
}

// Avail returns all module keys sorted, the "module avail" listing.
func (s *System) Avail() []string {
	var out []string
	for _, versions := range s.files {
		for _, m := range versions {
			key := m.Key()
			if m.Default {
				key += " (default)"
			}
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// Resolve finds a modulefile by "name" or "name/version". A bare name picks
// the default version, or the newest if none is marked default.
func (s *System) Resolve(spec string) (*Modulefile, error) {
	name, version := spec, ""
	if i := strings.IndexByte(spec, '/'); i >= 0 {
		name, version = spec[:i], spec[i+1:]
	}
	versions := s.files[name]
	if len(versions) == 0 {
		return nil, fmt.Errorf("modules: no module %q", name)
	}
	if version != "" {
		for _, m := range versions {
			if m.Version == version {
				return m, nil
			}
		}
		return nil, fmt.Errorf("modules: no module %q version %q", name, version)
	}
	for _, m := range versions {
		if m.Default {
			return m, nil
		}
	}
	best := versions[0]
	for _, m := range versions[1:] {
		if rpm.Vercmp(m.Version, best.Version) > 0 {
			best = m
		}
	}
	return best, nil
}

// Session is one user's shell with loaded modules and a mutable environment.
type Session struct {
	sys    *System
	loaded []*Modulefile
	env    map[string]string
}

// NewSession starts a session with a base environment (copied).
func (s *System) NewSession(baseEnv map[string]string) *Session {
	env := make(map[string]string, len(baseEnv))
	for k, v := range baseEnv {
		env[k] = v
	}
	return &Session{sys: s, env: env}
}

// Load loads a module by spec, enforcing prerequisites and conflicts.
func (sess *Session) Load(spec string) error {
	m, err := sess.sys.Resolve(spec)
	if err != nil {
		return err
	}
	for _, l := range sess.loaded {
		if l.Name == m.Name {
			return fmt.Errorf("modules: %s already loaded as %s", m.Name, l.Key())
		}
		for _, c := range m.Conflicts {
			if l.Name == c {
				return fmt.Errorf("modules: %s conflicts with loaded %s", m.Key(), l.Key())
			}
		}
		for _, c := range l.Conflicts {
			if m.Name == c {
				return fmt.Errorf("modules: %s conflicts with loaded %s", m.Key(), l.Key())
			}
		}
	}
	for _, pre := range m.Prereqs {
		found := false
		for _, l := range sess.loaded {
			if l.Name == pre {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("modules: %s requires module %s to be loaded first", m.Key(), pre)
		}
	}
	// Apply environment mutations.
	for k, v := range m.SetEnv {
		sess.env[k] = v
	}
	for k, paths := range m.PrependPath { //detlint:ordered each iteration reads and writes only its own env key
		existing := sess.env[k]
		parts := append([]string(nil), paths...)
		if existing != "" {
			parts = append(parts, existing)
		}
		sess.env[k] = strings.Join(parts, ":")
	}
	sess.loaded = append(sess.loaded, m)
	return nil
}

// Unload removes a loaded module by name, rebuilding the environment from
// the remaining modules (the robust way real module systems behave under
// "module purge"-style recomputation).
func (sess *Session) Unload(name string) error {
	idx := -1
	for i, l := range sess.loaded {
		if l.Name == name || l.Key() == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("modules: %s is not loaded", name)
	}
	// A module other loaded modules depend on cannot be unloaded.
	for i, l := range sess.loaded {
		if i == idx {
			continue
		}
		for _, pre := range l.Prereqs {
			if pre == sess.loaded[idx].Name {
				return fmt.Errorf("modules: cannot unload %s: %s depends on it", name, l.Key())
			}
		}
	}
	remaining := append(append([]*Modulefile(nil), sess.loaded[:idx]...), sess.loaded[idx+1:]...)
	return sess.reload(remaining)
}

// Purge unloads everything.
func (sess *Session) Purge() {
	_ = sess.reload(nil)
}

// reload rebuilds env from the base (non-module) variables plus the given
// module list in order.
func (sess *Session) reload(mods []*Modulefile) error {
	// Strip all module-applied state: recompute from scratch by removing the
	// current modules' contributions. Simplest correct approach: rebuild env
	// from scratch is impossible without the base copy, so maintain one.
	base := make(map[string]string)
	for k, v := range sess.env {
		base[k] = v
	}
	// Remove current module contributions in reverse order.
	for i := len(sess.loaded) - 1; i >= 0; i-- {
		m := sess.loaded[i]
		for k := range m.SetEnv {
			delete(base, k)
		}
		for k, paths := range m.PrependPath { //detlint:ordered each iteration reads and writes only its own env key
			cur := strings.Split(base[k], ":")
			var kept []string
			for _, c := range cur {
				skip := false
				for _, p := range paths {
					if c == p {
						skip = true
						break
					}
				}
				if !skip && c != "" {
					kept = append(kept, c)
				}
			}
			if len(kept) == 0 {
				delete(base, k)
			} else {
				base[k] = strings.Join(kept, ":")
			}
		}
	}
	sess.env = base
	sess.loaded = nil
	for _, m := range mods {
		if err := sess.Load(m.Key()); err != nil {
			return err
		}
	}
	return nil
}

// List returns loaded module keys in load order ("module list").
func (sess *Session) List() []string {
	out := make([]string, len(sess.loaded))
	for i, m := range sess.loaded {
		out[i] = m.Key()
	}
	return out
}

// Env returns the current value of an environment variable.
func (sess *Session) Env(key string) string { return sess.env[key] }

// GenerateFromPackages derives modulefiles from an installed package list
// (an rpm.DB's Installed()): every package in the given categories gets a
// module exposing /opt/apps/<name>/<version> paths, laid out the way XSEDE
// clusters lay out their software trees (the paper: "libraries are in the
// same place as on XSEDE clusters").
func GenerateFromPackages(pkgs []*rpm.Package, categories ...string) *System {
	wanted := make(map[string]bool, len(categories))
	for _, c := range categories {
		wanted[c] = true
	}
	sys := NewSystem()
	for _, p := range pkgs {
		if len(wanted) > 0 && !wanted[p.Category] {
			continue
		}
		sys.Add(moduleForPackage(p))
	}
	return sys
}

func moduleForPackage(p *rpm.Package) *Modulefile {
	root := fmt.Sprintf("/opt/apps/%s/%s", p.Name, p.EVR.Version)
	return &Modulefile{
		Name:    p.Name,
		Version: p.EVR.Version,
		Default: true,
		Help:    p.Summary,
		PrependPath: map[string][]string{
			"PATH":            {root + "/bin"},
			"LD_LIBRARY_PATH": {root + "/lib"},
		},
		SetEnv: map[string]string{
			"XSEDE_" + strings.ToUpper(strings.NewReplacer("-", "_", ".", "_").Replace(p.Name)) + "_DIR": root,
		},
	}
}
