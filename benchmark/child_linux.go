package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent has the kernel kill the child when this process ends, so
// no path out of the orchestrator, a kill included, leaves a pass running.
// The caller keeps its goroutine on one OS thread until the child has been
// waited for: the signal follows the thread that started the child.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
