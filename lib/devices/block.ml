let sector_words = 8
let op_read = 1
let op_write = 2
let op_size = 3
let op_dma_read = 4

type t = {
  name : string;
  data : int64 array;
  sectors : int;
  mutable reads : int;
  mutable writes : int;
  mutable dma_engine : (dma_addr:int -> int64 array -> (unit, string) result) option;
  mutable dma_denied : int;
}

(* Ticks per transfer (also charged by a refused request), and per
   transferred word. *)
let seek_cost = 500
let word_cost = 5

let create ~name ~sectors () =
  if sectors <= 0 then invalid_arg "Block.create: sectors must be positive";
  {
    name;
    data = Array.make (sectors * sector_words) 0L;
    sectors;
    reads = 0;
    writes = 0;
    dma_engine = None;
    dma_denied = 0;
  }

let read_sector t s =
  if s < 0 || s >= t.sectors then None
  else Some (Array.sub t.data (s * sector_words) sector_words)

let write_sector t s words =
  if s < 0 || s >= t.sectors || Array.length words <> sector_words then false
  else begin
    Array.blit words 0 t.data (s * sector_words) sector_words;
    true
  end

let set_dma_engine t f = t.dma_engine <- Some f
let dma_denied t = t.dma_denied

let transfer_cost = seek_cost + (word_cost * sector_words)

let handle t ~now:_ request =
  if Array.length request = 0 then Device.error ~code:Device.status_bad_request ~latency:1
  else begin
    let op = Int64.to_int request.(0) in
    if op = op_read then begin
      if Array.length request < 2 then
        Device.error ~code:Device.status_bad_request ~latency:1
      else begin
        match read_sector t (Int64.to_int request.(1)) with
        | None -> Device.error ~code:Device.status_bad_request ~latency:seek_cost
        | Some words ->
          t.reads <- t.reads + 1;
          Device.ok ~payload:words ~latency:transfer_cost ()
      end
    end
    else if op = op_write then begin
      if Array.length request <> 2 + sector_words then
        Device.error ~code:Device.status_bad_request ~latency:1
      else begin
        let s = Int64.to_int request.(1) in
        if write_sector t s (Array.sub request 2 sector_words) then begin
          t.writes <- t.writes + 1;
          Device.ok ~latency:transfer_cost ()
        end
        else Device.error ~code:Device.status_bad_request ~latency:seek_cost
      end
    end
    else if op = op_size then
      Device.ok ~payload:[| Int64.of_int t.sectors |] ~latency:10 ()
    else if op = op_dma_read then begin
      if Array.length request < 3 then
        Device.error ~code:Device.status_bad_request ~latency:1
      else begin
        match (t.dma_engine, read_sector t (Int64.to_int request.(1))) with
        | None, _ -> Device.error ~code:Device.status_denied ~latency:1
        | _, None -> Device.error ~code:Device.status_bad_request ~latency:seek_cost
        | Some dma, Some words -> (
          match dma ~dma_addr:(Int64.to_int request.(2)) words with
          | Ok () ->
            t.reads <- t.reads + 1;
            Device.ok ~latency:transfer_cost ()
          | Error _ ->
            t.dma_denied <- t.dma_denied + 1;
            Device.error ~code:Device.status_denied ~latency:seek_cost)
      end
    end
    else Device.error ~code:Device.status_bad_request ~latency:1
  end

let device t =
  {
    Device.name = t.name;
    handle = (fun ~now req -> handle t ~now req);
  }
