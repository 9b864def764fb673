// The benchmark is a module of its own so that it builds from its own
// build file; the module path sits under pioman so the packages in
// ../internal stay importable.
module pioman/bench

go 1.24

require pioman v0.0.0

replace pioman => ../
