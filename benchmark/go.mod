module darray/benchmark

go 1.22

require darray v0.0.0

replace darray => ../
