let op_h2d = 1
let op_d2h = 2
let op_gemm = 3
let op_clear = 4
let op_argmax = 5

type t = {
  name : string;
  mem : int64 array;
  mutable kernels : int;
}

(* Ticks per multiply-accumulate. *)
let flop_cost = 1

let create ?(mem_words = 64 * 1024) ~name () =
  if mem_words <= 0 then invalid_arg "Gpu.create: mem_words must be positive";
  { name; mem = Array.make mem_words 0L; kernels = 0 }

let peek t a = if a >= 0 && a < Array.length t.mem then Some t.mem.(a) else None

let poke t a v =
  if a >= 0 && a < Array.length t.mem then begin
    t.mem.(a) <- v;
    true
  end
  else false

let in_range t addr len = addr >= 0 && len >= 0 && addr + len <= Array.length t.mem

let mask32 v = Int64.logand v 0xFFFF_FFFFL

let gemm t ~a ~b ~c ~n =
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0L in
      for k = 0 to n - 1 do
        acc := Int64.add !acc (Int64.mul t.mem.(a + (i * n) + k) t.mem.(b + (k * n) + j))
      done;
      t.mem.(c + (i * n) + j) <- mask32 !acc
    done
  done

let handle t ~now:_ request =
  if Array.length request = 0 then Device.error ~code:Device.status_bad_request ~latency:1
  else begin
    let op = Int64.to_int request.(0) in
    if op = op_h2d then begin
      if Array.length request < 2 then
        Device.error ~code:Device.status_bad_request ~latency:1
      else begin
        let addr = Int64.to_int request.(1) in
        let len = Array.length request - 2 in
        if not (in_range t addr len) then
          Device.error ~code:Device.status_bad_request ~latency:1
        else begin
          Array.blit request 2 t.mem addr len;
          Device.ok ~latency:(10 + len) ()
        end
      end
    end
    else if op = op_d2h then begin
      if Array.length request < 3 then
        Device.error ~code:Device.status_bad_request ~latency:1
      else begin
        let addr = Int64.to_int request.(1) and len = Int64.to_int request.(2) in
        if not (in_range t addr len) then
          Device.error ~code:Device.status_bad_request ~latency:1
        else Device.ok ~payload:(Array.sub t.mem addr len) ~latency:(10 + len) ()
      end
    end
    else if op = op_gemm then begin
      if Array.length request < 5 then
        Device.error ~code:Device.status_bad_request ~latency:1
      else begin
        let a = Int64.to_int request.(1)
        and b = Int64.to_int request.(2)
        and c = Int64.to_int request.(3)
        and n = Int64.to_int request.(4) in
        let sq = n * n in
        if n <= 0 || n > 256
           || not (in_range t a sq && in_range t b sq && in_range t c sq)
        then Device.error ~code:Device.status_bad_request ~latency:1
        else begin
          gemm t ~a ~b ~c ~n;
          t.kernels <- t.kernels + 1;
          Device.ok ~latency:(100 + (flop_cost * n * n * n)) ()
        end
      end
    end
    else if op = op_argmax then begin
      if Array.length request < 3 then
        Device.error ~code:Device.status_bad_request ~latency:1
      else begin
        let base = Int64.to_int request.(1) and n = Int64.to_int request.(2) in
        if n <= 0 || not (in_range t base n) then
          Device.error ~code:Device.status_bad_request ~latency:1
        else begin
          let best = ref 0 in
          for j = 1 to n - 1 do
            if Int64.compare t.mem.(base + j) t.mem.(base + !best) > 0 then best := j
          done;
          t.kernels <- t.kernels + 1;
          Device.ok ~payload:[| Int64.of_int !best |] ~latency:(10 + n) ()
        end
      end
    end
    else if op = op_clear then begin
      Array.fill t.mem 0 (Array.length t.mem) 0L;
      Device.ok ~latency:(Array.length t.mem / 64) ()
    end
    else Device.error ~code:Device.status_bad_request ~latency:1
  end

let device t =
  {
    Device.name = t.name;
    handle = (fun ~now req -> handle t ~now req);
  }
