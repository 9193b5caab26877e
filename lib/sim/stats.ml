(* Samples live in a growable float array (amortized O(1) add, no
   per-sample boxing).  Order statistics (percentile, min, max) read
   a sorted copy that is computed once and cached until the next
   [add]: a report that asks for several percentiles of a 10k-sample
   series pays for one sort, not one per call. *)

type series = {
  s_name : string;
  mutable data : float array;  (* samples live in data.[0 .. count-1] *)
  mutable count : int;
  mutable sorted : float array option;  (* cache; invalidated by add *)
}

let series s_name = { s_name; data = [||]; count = 0; sorted = None }

let add s x =
  if s.count = Array.length s.data then begin
    let grown = Array.make (max 16 (2 * s.count)) 0.0 in
    Array.blit s.data 0 grown 0 s.count;
    s.data <- grown
  end;
  s.data.(s.count) <- x;
  s.count <- s.count + 1;
  s.sorted <- None

let add_span s span = add s (Time.to_ms_f span)

let n s = s.count

let fold f init s =
  let acc = ref init in
  for i = 0 to s.count - 1 do
    acc := f !acc s.data.(i)
  done;
  !acc

let total s = fold ( +. ) 0.0 s

let mean s = if s.count = 0 then 0.0 else total s /. float_of_int s.count

let sorted s =
  match s.sorted with
  | Some a -> a
  | None ->
      let a = Array.sub s.data 0 s.count in
      Array.sort Float.compare a;
      s.sorted <- Some a;
      a

(* Like [mean], an empty series reports 0.0 rather than an infinity
   that would leak into reports (and serialize as invalid JSON). *)
let min_v s = if s.count = 0 then 0.0 else (sorted s).(0)
let max_v s = if s.count = 0 then 0.0 else (sorted s).(s.count - 1)

(* Like [mean]/[min_v]/[max_v], an empty series reports 0.0: an empty
   load cell must not crash a bench run. *)
let percentile s p =
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: bad percentile";
  if s.count = 0 then 0.0
  else
  let arr = sorted s in
  let idx = p /. 100.0 *. float_of_int (s.count - 1) in
  let lo = int_of_float idx in
  let hi = min (lo + 1) (s.count - 1) in
  let frac = idx -. float_of_int lo in
  arr.(lo) +. (frac *. (arr.(hi) -. arr.(lo)))

let stddev s =
  if s.count < 2 then 0.0
  else begin
    let m = mean s in
    let sq = fold (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 s in
    sqrt (sq /. float_of_int (s.count - 1))
  end

let name s = s.s_name

type counter = { c_name : string; mutable v : int }

let counter c_name = { c_name; v = 0 }
let incr c = c.v <- c.v + 1
let incr_by c k = c.v <- c.v + k
let value c = c.v

(* Counters keyed by a small integer key — in practice a peer address,
   so a transport can attribute retransmissions or timeouts to the
   destination that caused them.  Reads are sorted by key so reports
   and JSON stay deterministic regardless of hash order. *)

type keyed = { k_name : string; tbl : (int, int) Hashtbl.t }

let keyed k_name = { k_name; tbl = Hashtbl.create 8 }

let kadd k key n =
  let v = match Hashtbl.find_opt k.tbl key with Some v -> v | None -> 0 in
  Hashtbl.replace k.tbl key (v + n)

let kincr k key = kadd k key 1
let kset k key v = Hashtbl.replace k.tbl key v

let kvalue k key =
  match Hashtbl.find_opt k.tbl key with Some v -> v | None -> 0

let kitems k =
  Hashtbl.fold (fun key v acc -> (key, v) :: acc) k.tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)


(* ------------------------------------------------------------------ *)
(* Streaming histogram: HDR-style logarithmic buckets.

   A [hist] summarizes an unbounded stream of non-negative samples in
   O(1) memory: a fixed array of geometric buckets (ratio [1 + 2e]
   between bucket boundaries) plus exact count/sum/min/max.  A sample
   lands in the bucket whose boundaries bracket it and is later
   reported as the bucket's geometric midpoint, so any percentile is
   off by at most a factor of [sqrt (1 + 2e)] — under 1% relative
   error for the default e = 1% — while a million-sample series costs
   the same 28 KB as a ten-sample one.  p0 and p100 are exact (they
   read the tracked min/max), as are [hist_mean] and [hist_total]. *)

(* Buckets span [lo_edge, hi_edge); values outside are clamped into
   the first/last bucket (and min/max stay exact, so the clamp only
   matters for mid percentiles, where such outliers are negligible). *)
let h_lo_edge = 1e-6 (* 1 ns expressed in ms, the usual sample unit *)
let h_hi_edge = 1e9
let h_ratio = 1.02 (* bucket boundary growth: <=1% midpoint error *)
let h_log_ratio = log h_ratio

(* bucket index for v in [lo_edge, hi_edge): floor (log (v/lo) / log r) *)
let h_buckets =
  int_of_float (ceil (log (h_hi_edge /. h_lo_edge) /. h_log_ratio)) + 1

type hist = {
  h_name : string;
  buckets : int array; (* buckets.(0) also holds samples <= lo_edge *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

let hist h_name =
  {
    h_name;
    buckets = Array.make h_buckets 0;
    h_count = 0;
    h_sum = 0.0;
    h_min = infinity;
    h_max = neg_infinity;
  }

let h_index v =
  if v <= h_lo_edge then 0
  else
    let i = int_of_float (log (v /. h_lo_edge) /. h_log_ratio) in
    if i < 0 then 0 else if i >= h_buckets then h_buckets - 1 else i

(* geometric midpoint of bucket i: lo * r^(i + 1/2) *)
let h_value i = h_lo_edge *. exp (h_log_ratio *. (float_of_int i +. 0.5))

let hadd h v =
  h.buckets.(h_index v) <- h.buckets.(h_index v) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let hadd_span h span = hadd h (Time.to_ms_f span)

let hist_n h = h.h_count
let hist_total h = h.h_sum
let hist_mean h = if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count
let hist_min h = if h.h_count = 0 then 0.0 else h.h_min
let hist_max h = if h.h_count = 0 then 0.0 else h.h_max

let hist_percentile h p =
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.hist_percentile";
  if h.h_count = 0 then 0.0
  else if p = 0.0 then h.h_min (* exact: tracked outside the buckets *)
  else if p = 100.0 then h.h_max
  else begin
    (* same rank convention as [percentile] on the exact series *)
    let rank = p /. 100.0 *. float_of_int (h.h_count - 1) in
    let target = int_of_float rank in
    let seen = ref 0 and i = ref 0 and ans = ref h.h_max in
    (try
       while !i < h_buckets do
         let c = h.buckets.(!i) in
         if c > 0 then begin
           seen := !seen + c;
           if !seen > target then begin
             ans := h_value !i;
             raise Exit
           end
         end;
         i := !i + 1
       done
     with Exit -> ());
    (* exact extremes beat the bucket midpoint at the edges *)
    if !ans < h.h_min then h.h_min
    else if !ans > h.h_max then h.h_max
    else !ans
  end

