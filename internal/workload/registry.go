package workload

import "sync"

// Entry is one registered workload: the name front ends accept, a
// one-line description for listings (fastsim -list-workloads, fastctl
// workloads, GET /v1/workloads), and a builder parameterised by core
// count.
type Entry struct {
	Name        string
	Description string
	// Build constructs the spec at the given core count. The smp-*
	// workloads bake the count into the user program and rebuild; the
	// rest leave single-core configs untouched and set Kernel.Cores only
	// above one (idle secondaries park in the kernel). FS workloads are
	// uniprocessor-only: their builder ignores the count.
	Build func(cores int) Spec
}

// tableEntry wraps a Table 1 / figure workload already defined elsewhere.
func tableEntry(spec Spec, desc string) Entry {
	return Entry{Name: spec.Name, Description: desc, Build: func(cores int) Spec {
		spec := spec
		if cores > 1 {
			spec.Kernel.Cores = cores
		}
		return spec
	}}
}

// fsEntry wraps a server-class FS workload (uniprocessor-only, so the core
// count is ignored).
func fsEntry(desc string, build func() Spec) Entry {
	s := build()
	return Entry{Name: s.Name, Description: desc, Build: func(int) Spec { return build() }}
}

// smpEntry wraps one of the multicore pair, which bakes the core count
// (at least one) into its user program.
func smpEntry(sleep bool, desc string) Entry {
	return Entry{Name: SMP(1, sleep).Name, Description: desc, Build: func(cores int) Spec {
		return SMP(max(cores, 1), sleep)
	}}
}

// Registry returns every runnable workload in listing order: the sixteen
// Table 1 entries, the extra boot workload of Figures 4-5, the multicore
// pair, and the server-class FS workloads. The slice is built once per
// process and shared: callers must not modify it.
func Registry() []Entry { return registry() }

var registry = sync.OnceValue(func() []Entry {
	tableDesc := map[string]string{
		"Linux-2.4": "toyOS 2.4 boot into init (Table 1 boot workload)",
		"Linux-2.6": "toyOS 2.6 boot into init (Table 1 boot workload)",
	}
	var entries []Entry
	for _, s := range All() {
		desc := tableDesc[s.Name]
		if desc == "" {
			desc = s.Name + " dynamic-profile user program over a fast boot (Table 1)"
		}
		entries = append(entries, tableEntry(s, desc))
	}
	entries = append(entries,
		tableEntry(WindowsXP(), "Windows-class boot with a wider instruction mix (Figures 4-5)"),
		smpEntry(false, "N cores contending on an ll/sc spinlock over the modeled interconnect"),
		smpEntry(true, "smp-lock with a sleep per iteration so all-quiescent snapshot boundaries occur"),
		fsEntry("FS kernel: fork 8 children exec'd from the toyFS file \"child\", reap their statuses", ShellFork),
		fsEntry("FS kernel: create/append a file across block boundaries, then stress the commit log", LogWrite),
		fsEntry("FS kernel: polled NIC request/response server with hashed buckets and an audit log", NICServ),
	)
	return entries
})

// Lookup finds a registered workload by name and builds it at the given
// core count.
func Lookup(name string, cores int) (Spec, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e.Build(cores), true
		}
	}
	return Spec{}, false
}
