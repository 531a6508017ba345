module hpcmr/e2ebench

go 1.24

require hpcmr v0.0.0

replace hpcmr => ../
