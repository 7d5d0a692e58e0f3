package main

import "syscall"

// childAttrs makes the kernel stop a server when the benchmark dies,
// whatever kills it.
func childAttrs() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
}
