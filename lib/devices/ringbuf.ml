module Dram = Guillotine_memory.Dram

let magic = 0x4755494C4C52L (* "GUILLR" *)

type t = {
  dram : Dram.t;
  base : int;
  capacity : int;
  slot_words : int;
}

let off_magic = 0
let off_capacity = 1
let off_slot_words = 2
let off_head = 3
let off_tail = 4
let header_words = 5

let footprint ~capacity ~slot_words = header_words + (capacity * slot_words)

let init dram ~base ~capacity ~slot_words =
  if capacity <= 0 || slot_words <= 1 then
    invalid_arg "Ringbuf.init: capacity and slot_words must be positive";
  if base < 0 || base + footprint ~capacity ~slot_words > Dram.size dram then
    invalid_arg "Ringbuf.init: ring does not fit in DRAM";
  Dram.write dram (base + off_magic) magic;
  Dram.write_int dram (base + off_capacity) capacity;
  Dram.write_int dram (base + off_slot_words) slot_words;
  Dram.write_int dram (base + off_head) 0;
  Dram.write_int dram (base + off_tail) 0;
  { dram; base; capacity; slot_words }

let attach dram ~base =
  if base < 0 || base + header_words > Dram.size dram then Error "ring out of range"
  else if Dram.read dram (base + off_magic) <> magic then Error "bad ring magic"
  else begin
    let capacity = Dram.read_int dram (base + off_capacity) in
    let slot_words = Dram.read_int dram (base + off_slot_words) in
    if capacity <= 0 || capacity > 65536 then Error "bad ring capacity"
    else if slot_words <= 1 || slot_words > 4096 then Error "bad slot size"
    else if base + footprint ~capacity ~slot_words > Dram.size dram then
      Error "ring exceeds DRAM"
    else Ok { dram; base; capacity; slot_words }
  end

let capacity t = t.capacity
let base t = t.base

let head t = Dram.read_int t.dram (t.base + off_head)
let tail t = Dram.read_int t.dram (t.base + off_tail)

let length t =
  let n = tail t - head t in
  (* The producer may have scribbled the cursors; clamp to sane range so
     the consumer never loops out of bounds. *)
  if n < 0 then 0 else if n > t.capacity then t.capacity else n

let slot_addr t index = t.base + header_words + (index mod t.capacity * t.slot_words)

let push t msg =
  let len = Array.length msg in
  if len > t.slot_words - 1 then Error "message exceeds slot size"
  else if length t >= t.capacity then Error "ring full"
  else begin
    let tl = tail t in
    let addr = slot_addr t tl in
    Dram.write_int t.dram addr len;
    Array.iteri (fun i w -> Dram.write t.dram (addr + 1 + i) w) msg;
    Dram.write_int t.dram (t.base + off_tail) (tl + 1);
    Ok ()
  end

let pop t =
  if length t = 0 then None
  else begin
    let hd = head t in
    let addr = slot_addr t hd in
    let len = Dram.read_int t.dram addr in
    Dram.write_int t.dram (t.base + off_head) (hd + 1);
    if len < 0 || len > t.slot_words - 1 then
      Some (Error (Printf.sprintf "corrupt slot length %d" len))
    else Some (Ok (Array.init len (fun i -> Dram.read t.dram (addr + 1 + i))))
  end
