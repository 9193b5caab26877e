type t = int
type span = int

let zero = 0
let us n = n * 1_000
let ms n = n * 1_000_000
let sec n = n * 1_000_000_000
let of_ms_f x = int_of_float (Float.round (x *. 1e6))
let of_us_f x = int_of_float (Float.round (x *. 1e3))
let add t d = t + d
let diff a b = a - b
let to_ms_f t = float_of_int t /. 1e6
let to_us_f t = float_of_int t /. 1e3
let compare = Int.compare
