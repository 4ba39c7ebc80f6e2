(* The four xoshiro256** words live unboxed in one 32-byte buffer (s0 at
   offset 0, s1 at 8, s2 at 16, s3 at 24), read and written in native
   byte order.  A record of [mutable int64] fields would box every store;
   these primitives compile to plain loads and stores, so a draw whose
   result is consumed unboxed allocates nothing. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 8 s1;
  set t 16 s2;
  set t 24 s3;
  t

(* SplitMix64 step, used only for seeding so that nearby seeds yield
   unrelated xoshiro states. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  of_words s0 s1 s2 s3

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] bits64 t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set t 0 s0;
  set t 8 s1;
  set t 16 (logxor s2 tmp);
  set t 24 (rotl s3 45);
  result

let split t =
  let seed = Int64.to_int (bits64 t) in
  create seed

let copy = Bytes.copy

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling on the top 62 bits (what fits a native int)
     to avoid modulo bias. *)
  let r = ref (Int64.to_int (Int64.shift_right_logical (bits64 t) 2)) in
  let v = ref (!r mod bound) in
  while !r - !v > max_int - bound + 1 do
    r := Int64.to_int (Int64.shift_right_logical (bits64 t) 2);
    v := !r mod bound
  done;
  !v

let[@inline] unit_float t =
  (* 53 random bits scaled to [0,1). *)
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  r *. 0x1.0p-53

let bernoulli t p = unit_float t < p

let sample_without_replacement t k n =
  if k > n then invalid_arg "Prng.sample_without_replacement: k > n";
  if k * 3 >= n then begin
    (* Dense case: partial Fisher-Yates on the full range. *)
    let a = Array.init n (fun i -> i) in
    for i = 0 to k - 1 do
      let j = i + int t (n - i) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    Array.sub a 0 k
  end
  else begin
    (* Sparse case: rejection into a hash set. *)
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let v = int t n in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end

let choose t a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int t (Array.length a))

(* Checkpoint support: the full state is the four xoshiro words. *)
let encode w t =
  Codec.i64 w (get t 0);
  Codec.i64 w (get t 8);
  Codec.i64 w (get t 16);
  Codec.i64 w (get t 24)

let decode r =
  let s0 = Codec.read_i64 r in
  let s1 = Codec.read_i64 r in
  let s2 = Codec.read_i64 r in
  let s3 = Codec.read_i64 r in
  of_words s0 s1 s2 s3
