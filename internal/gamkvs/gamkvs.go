// Package gamkvs wires the distributed key-value store (internal/kvs)
// to the GAM baseline's arrays, reproducing the GAM-based KVS the paper
// compares against in Figure 17: identical bucket/slab design and the
// same whole-bucket, whole-record accesses, but each of them (and every
// lock operation, on a lock word that lives in the DSM) pays GAM's
// lock-based data access path.
package gamkvs

import (
	"darray/internal/cluster"
	"darray/internal/gam"
	"darray/internal/kvs"
)

// New collectively builds a GAM-backed KVS.
func New(node *cluster.Node, cfg kvs.Config) *kvs.Store {
	entryWords, byteWords := kvs.Sizes(cfg, node.Cluster().Nodes())
	entries := gam.New(node, entryWords)
	bytes := gam.New(node, byteWords)
	return kvs.New(node, entries, bytes, cfg)
}
