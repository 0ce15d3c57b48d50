package main

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The benchmark and its repo-server children run on one CPU. On a shared
// virtual machine a request handed from one CPU to another wakes a halted
// virtual CPU, and how long the hypervisor takes to run it again depends
// on its other guests: under load that wait doubled every latency. On one
// CPU the client and the server hand the work back and forth without
// leaving it, so the CPU stays busy and the figures move only with the
// CPU time the hypervisor grants it.

// cpusEnv carries the number of CPUs the benchmark was offered across the
// re-execution that pins it.
const cpusEnv = "PERFBENCH_CPUS"

// cpuMask is an affinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) affinity(op uintptr) error {
	_, _, e := syscall.RawSyscall(op, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

// pinToOneCPU confines the process to the highest-numbered CPU it may run
// on and returns how many CPUs it was offered and the CPU it runs on. An
// affinity mask belongs to a thread, and the Go runtime has started
// several by now, so when the mask holds more than one CPU the benchmark
// narrows the calling thread's mask and re-executes itself: the new image
// starts inside the mask, and so do every thread and child it makes.
func pinToOneCPU() (offered, cpu int, err error) {
	var m cpuMask
	if err := m.affinity(syscall.SYS_SCHED_GETAFFINITY); err != nil {
		return 0, 0, err
	}
	n, last := 0, -1
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			n, last = n+1, i
		}
	}
	if n == 1 {
		if v, err := strconv.Atoi(os.Getenv(cpusEnv)); err == nil {
			return v, last, nil
		}
		return 1, last, nil
	}
	runtime.LockOSThread() // the mask and the exec must be the same thread's
	one := cpuMask{}
	one[last/64] = 1 << (last % 64)
	if err := one.affinity(syscall.SYS_SCHED_SETAFFINITY); err != nil {
		return 0, 0, err
	}
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	return 0, 0, syscall.Exec(exe, os.Args, append(os.Environ(), cpusEnv+"="+strconv.Itoa(n)))
}
