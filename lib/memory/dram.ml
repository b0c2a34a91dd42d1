type t = { data : int64 array }

exception Bus_error of { addr : int; size : int }

let create ~size =
  if size <= 0 then invalid_arg "Dram.create: size must be positive";
  { data = Array.make size 0L }

let size t = Array.length t.data

let check t addr =
  if addr < 0 || addr >= Array.length t.data then
    raise (Bus_error { addr; size = Array.length t.data })

let read t addr =
  check t addr;
  (* [check] just proved the index in bounds. *)
  Array.unsafe_get t.data addr

let write t addr v =
  check t addr;
  t.data.(addr) <- v

let read_int t addr = Int64.to_int (read t addr)
let write_int t addr v = write t addr (Int64.of_int v)

let flip_bit t ~addr ~bit =
  check t addr;
  if bit < 0 || bit > 63 then invalid_arg "Dram.flip_bit: bit out of range";
  t.data.(addr) <- Int64.logxor t.data.(addr) (Int64.shift_left 1L bit)

(* [at, at + len) must lie in the DRAM; the error names its last word. *)
let check_region t ~at ~len =
  check t at;
  if len < 0 || at + len > Array.length t.data then
    raise (Bus_error { addr = at + len - 1; size = Array.length t.data })

let load_words t ~at words =
  check_region t ~at ~len:(Array.length words);
  Array.blit words 0 t.data at (Array.length words)

let load_program t (p : Guillotine_isa.Asm.program) =
  load_words t ~at:p.origin p.words

let fill t ~at ~len v =
  check_region t ~at ~len;
  Array.fill t.data at len v

let snapshot t ~at ~len =
  check_region t ~at ~len;
  Array.sub t.data at len

let hash_region t ~at ~len =
  check_region t ~at ~len;
  let b = Bytes.create (8 * len) in
  for i = 0 to len - 1 do
    Bytes.set_int64_be b (8 * i) (Array.unsafe_get t.data (at + i))
  done;
  Bytes.unsafe_to_string b
