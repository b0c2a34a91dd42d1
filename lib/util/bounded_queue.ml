type 'a t = {
  capacity : int;
  q : 'a Queue.t;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Bounded_queue.create: capacity";
  { capacity; q = Queue.create () }

let push t x =
  if Queue.length t.q >= t.capacity then false
  else begin
    Queue.push x t.q;
    true
  end

let pop t = Queue.take_opt t.q
let length t = Queue.length t.q
let capacity t = t.capacity

let to_list t = List.of_seq (Queue.to_seq t.q)
