//go:build !linux

package main

import "syscall"

// childAttrs has no parent-death signal outside Linux; the benchmark's
// signal handler stops its servers instead.
func childAttrs() *syscall.SysProcAttr { return nil }
