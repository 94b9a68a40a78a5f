module github.com/go-atomicswap/atomicswap/benchmark

go 1.24

require github.com/go-atomicswap/atomicswap v0.0.0

replace github.com/go-atomicswap/atomicswap => ../
