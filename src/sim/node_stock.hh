/**
 * @file
 * A stock of retired unordered_map nodes, so a table whose keys churn
 * (an access-counter table refilled every period, the classifier's
 * tracked pages, the IOMMU's per-page walk waiters) stops allocating
 * once it has reached its peak size.
 *
 * retire() extracts a node instead of erasing it; insert() re-keys a
 * stocked node and inserts it. An extracted-and-reinserted node lands
 * exactly where emplace() would put a new one, and a table emptied by
 * retiring every node is in the state clear() leaves, so iteration
 * order is the same as with erase()/emplace().
 */

#ifndef GRIFFIN_SIM_NODE_STOCK_HH
#define GRIFFIN_SIM_NODE_STOCK_HH

#include <iterator>
#include <utility>
#include <vector>

namespace griffin::sim {

template <typename Map>
class NodeStock
{
  public:
    /** Remove @p it from @p map, keeping its node. @return the next. */
    typename Map::iterator
    retire(Map &map, typename Map::iterator it)
    {
        auto next = std::next(it);
        _nodes.push_back(map.extract(it));
        return next;
    }

    /**
     * Insert @p key, which must be absent, into @p map. A stocked node
     * keeps the mapped value it was retired with (containers keep
     * their capacity); a new one is value-initialised.
     */
    typename Map::iterator
    insert(Map &map, const typename Map::key_type &key)
    {
        if (_nodes.empty())
            return map.try_emplace(key).first;
        typename Map::node_type node = std::move(_nodes.back());
        _nodes.pop_back();
        node.key() = key;
        return map.insert(std::move(node)).position;
    }

  private:
    std::vector<typename Map::node_type> _nodes;
};

} // namespace griffin::sim

#endif // GRIFFIN_SIM_NODE_STOCK_HH
