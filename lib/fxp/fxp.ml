let raw_bound = 65535

module Q15 = struct
  type t = int

  let fractional_bits = 15
  let zero = 0
  let one = 1 lsl fractional_bits
  let half = one / 2
  let max_value = raw_bound
  let ulp = 1.0 /. float_of_int one
  let saturate r = if r > raw_bound then raw_bound else if r < 0 then 0 else r
  let of_raw r = if r < 0 || r > raw_bound then None else Some r

  (* Checked without [of_raw]'s option, which would allocate on every
     call of the retrieval kernels. *)
  let of_raw_exn r =
    if r < 0 || r > raw_bound then
      invalid_arg (Printf.sprintf "Fxp.of_raw_exn: %d out of range" r)
    else r

  let to_raw t = t

  let of_float f =
    if Float.is_nan f then invalid_arg "Fxp.of_float: nan"
    else saturate (int_of_float (Float.round (f *. float_of_int one)))

  let to_float t = float_of_int t /. float_of_int one
  let add a b = saturate (a + b)
  let sub a b = if b >= a then 0 else a - b

  (* Round-to-nearest product: add half an output LSB before shifting. *)
  let mul a b = saturate ((a * b + half) lsr fractional_bits)

  let mul_int x n =
    if n < 0 then invalid_arg "Fxp.mul_int: negative scale" else saturate (x * n)

  let div a b =
    if b = 0 then raise Division_by_zero
    else saturate (((a lsl fractional_bits) + (b / 2)) / b)

  let recip_succ n =
    if n < 0 then invalid_arg "Fxp.recip_succ: negative distance bound"
    else
      let d = n + 1 in
      (* one/d rounded to nearest; d >= 1 so no saturation possible. *)
      (one + (d / 2)) / d

  let complement_to_one x = if x >= one then 0 else one - x
  let compare = Int.compare
  let equal = Int.equal
  let min = Stdlib.min
  let max = Stdlib.max
  let abs_diff_int a b = abs (a - b)
  let pp ppf t = Format.fprintf ppf "%.4f (%d)" (to_float t) t
end
