type t = Random.State.t

let create ~seed = Random.State.make [| seed; 0x6c6f7564; 0x636c |]

let split t =
  Random.State.make
    [| Random.State.bits t; Random.State.bits t; Random.State.bits t |]

let int t bound = Random.State.int t bound
let float t bound = Random.State.float t bound
let chance t p = Random.State.float t 1.0 < p

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
