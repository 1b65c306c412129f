package udt

import (
	"errors"
	"sync/atomic"
)

// Syscall batching (sendmmsg/recvmmsg) is a Linux/64-bit fast path; every
// use site has a portable sequential fallback so the package builds and
// behaves identically everywhere. batchingDisabled routes a Linux build
// through the fallback path too; TestBulkTransferBatchingDisabled sets it.
// The portable stubs themselves (batch_fallback.go) build and run under
// GOARCH=386.
var batchingDisabled atomic.Bool

// batchReadSize is the datagrams drained per recvmmsg call, and the
// datagrams the portable read loop handles between scheduling points.
const batchReadSize = 16

// errBatchUnsupported reports that batched reads are unavailable on this
// platform or socket; callers fall back to single-datagram reads.
var errBatchUnsupported = errors.New("udt: batched socket I/O unsupported")
