type t = int

let equal = Int.equal
let compare = Int.compare
