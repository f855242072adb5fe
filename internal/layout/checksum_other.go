//go:build !amd64

package layout

import "hash/crc32"

func update(crc uint32, p []byte) uint32 { return crc32.Update(crc, castagnoli, p) }
