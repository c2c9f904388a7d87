type t = { period_us : float; last : float array }
type status = Up | Suspect | Down

let log10_e = 0.4342944819032518
let suspect_phi = 1.0
let down_phi = 3.0

let create ?(period_us = 500.0) ~nodes () =
  if nodes < 1 then invalid_arg "Health.create: nodes must be >= 1";
  if period_us <= 0.0 then invalid_arg "Health.create: period must be > 0";
  { period_us; last = Array.make nodes 0.0 }

let beat t ~node ~at = if at > t.last.(node) then t.last.(node) <- at

let phi t ~node ~at =
  let dt = at -. t.last.(node) in
  if dt <= 0.0 then 0.0 else dt /. t.period_us *. log10_e

let status t ~node ~at =
  let p = phi t ~node ~at in
  if p >= down_phi then Down else if p >= suspect_phi then Suspect else Up

let last_beat t ~node = t.last.(node)

let status_to_string = function
  | Up -> "up"
  | Suspect -> "suspect"
  | Down -> "down"
