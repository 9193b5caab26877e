type payload = ..
type payload += Raw of string

type dst = Unicast of Address.t | Broadcast

type t = { src : Address.t; dst : dst; bytes : int; payload : payload }

let header_bytes = 18
let min_frame = 64

let make ~src ~dst ~payload_bytes payload =
  if payload_bytes < 0 then invalid_arg "Frame.make: negative payload";
  { src; dst; bytes = max min_frame (payload_bytes + header_bytes); payload }
