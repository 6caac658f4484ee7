//go:build linux

package diskstore

import (
	"os"
	"syscall"
)

// mmapFile maps size bytes of f read-only. A generation's files are never
// written after they are opened, so the mapping never goes stale.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

func munmapRegion(data []byte) {
	_ = syscall.Munmap(data)
}
