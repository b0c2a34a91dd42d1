type t = { mutable data : int64 array; size : int }

exception Bus_error of { addr : int; size : int }

let create ~size =
  if size <= 0 then invalid_arg "Dram.create: size must be positive";
  { data = [||]; size }

let size t = t.size

let check t addr =
  if addr < 0 || addr >= t.size then raise (Bus_error { addr; size = t.size })

(* The word array, made by the first call that mutates [t]; until then
   [data] is empty and every word reads 0. *)
let backing t =
  if Array.length t.data = 0 then t.data <- Array.make t.size 0L;
  t.data

(* The common case first: a word inside [data]. *)
let read t addr =
  let data = t.data in
  if addr >= 0 && addr < Array.length data then Array.unsafe_get data addr
  else begin
    check t addr;
    0L
  end

let write t addr v =
  let data = t.data in
  if addr >= 0 && addr < Array.length data then Array.unsafe_set data addr v
  else begin
    check t addr;
    (backing t).(addr) <- v
  end

let read_int t addr = Int64.to_int (read t addr)
let write_int t addr v = write t addr (Int64.of_int v)

let flip_bit t ~addr ~bit =
  check t addr;
  if bit < 0 || bit > 63 then invalid_arg "Dram.flip_bit: bit out of range";
  let data = backing t in
  data.(addr) <- Int64.logxor data.(addr) (Int64.shift_left 1L bit)

(* [at, at + len) must lie in the DRAM; the error names its last word. *)
let check_region t ~at ~len =
  check t at;
  if len < 0 || at + len > t.size then raise (Bus_error { addr = at + len - 1; size = t.size })

let load_words t ~at words =
  let len = Array.length words in
  check_region t ~at ~len;
  if len > 0 then Array.blit words 0 (backing t) at len

let load_program t (p : Guillotine_isa.Asm.program) =
  load_words t ~at:p.origin p.words

let fill t ~at ~len v =
  check_region t ~at ~len;
  (* A never-written DRAM already reads 0 everywhere. *)
  if len > 0 && (Array.length t.data > 0 || not (Int64.equal v 0L)) then
    Array.fill (backing t) at len v

let snapshot t ~at ~len =
  check_region t ~at ~len;
  if Array.length t.data = 0 then Array.make len 0L else Array.sub t.data at len

let hash_region t ~at ~len =
  check_region t ~at ~len;
  let data = t.data in
  if Array.length data = 0 then String.make (8 * len) '\000'
  else begin
    let b = Bytes.create (8 * len) in
    for i = 0 to len - 1 do
      Bytes.set_int64_be b (8 * i) (Array.unsafe_get data (at + i))
    done;
    Bytes.unsafe_to_string b
  end
