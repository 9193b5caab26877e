type body = ..
type body += Ping of string
type body += Empty
type body += Bitmap of bool array

type tid = { origin : Net.Address.t; seq : int }

type kind = Request | Reply | Ack | Busy | Probe | Nack

let bitmap_bytes n = (n + 7) / 8

type t = {
  tid : tid;
  service : int;
  kind : kind;
  frag : int;
  nfrags : int;
  total_size : int;
  body : body;
}

type Net.Frame.payload += Ratp of t

let header_bytes = 32

let nfrags_of ~frag_payload total_size =
  if total_size <= 0 then 1
  else (total_size + frag_payload - 1) / frag_payload

let frag_bytes ~frag_payload ~total_size i =
  let n = nfrags_of ~frag_payload total_size in
  if i < 0 || i >= n then invalid_arg "Packet.frag_bytes";
  if i < n - 1 then frag_payload
  else max 0 (total_size - (frag_payload * (n - 1)))
