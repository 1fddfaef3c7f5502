//go:build !linux

package main

import "os/exec"

// dieWithParent does nothing where the kernel has no parent-death signal;
// the child's own deadline still ends it.
func dieWithParent(*exec.Cmd) {}
